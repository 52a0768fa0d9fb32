"""Spectral conditions, root finding, root classification and table audits.

The four closed-form spectral conditions (Kratzer/oscillator under either
symmetry limit) are implemented as complex residual functions parameterized
by a branch strategy of two signs: the overall sign of the right-hand side
(sigma_rhs, equivalently the sign carried by sqrt(-beta^2)) and the sign
attached to the big Kratzer radical in the denominator (sigma_inner).
Every square root is the principal one, as the paper states the conditions.
Published tables mix three kinds of entries:

  A  genuine roots of the canonical branch,
  B  roots that appear only after flipping sigma_rhs (squaring artifacts),
  C  real parts of complex-conjugate root pairs of the squared (rationalized)
     form of the condition,
  D  entries matched by none of the above within tolerance.

Each condition is defined once (`_condition`, on the two signs) and serves
both scalar evaluation, where a pole raises SpectralPoleError, and the
vectorized real-axis scan, where poles are masked; the squared form
(`_squared_at`) is likewise one body for scalar and array evaluation, given
the radical term (`_radical_term`) the conditions share.  Only the class-D
diagnostic of `classify_value` also reads them with sqrt(|x|) of a real x.
They, the eliminant and the audit polish read a spec only through its
cached `ProblemSpec._condition_terms` record.

Each condition is algebraic in E.  Eliminating its square roots from the
squared form leaves one polynomial per spec and sigma_rhs, the eliminant
(`_eliminant`), whose real roots include every real root of every branch.
The real-axis search (`_scan_branches`) covers the `_search_branches` and
tests the sign-change rule of a grid scan only on the grid panels under
inclusion disks about the `np.roots` of the eliminant's float coefficients
(`_seeds`), which near clusters miss by up to 0.05: the radii come from the
eliminant itself, not its rounded coefficients, and hold its zeros up to
rounding, but certify no root.  All searched branches are evaluated in
one call, their signs stacked as (B, 1) columns so the radicals are taken
once per energy, and sign changes are polished by brentq (the package's
bit-identical port of scipy's, `drsbound.brent`) on the scalar residual:
each root found is the one a scan over the whole grid finds.

For the pure central cases (a = b = 0) only the Kratzer's big radical is
left to eliminate, and the eliminant is the squared form made polynomial --
a cubic for the oscillator, one quartic per sigma_rhs for the Kratzer --
solved exactly through its companion matrix, whose roots each spec keeps
(`ProblemSpec._eliminant_zeros`, read-only, built on first use);
`squared_polynomial_drso` / `_drsk` return it made monic.  Elsewhere the
squared form keeps its radicals (only the eliminant is free of them) and
its complex zeros are located by one secant multistart
(`_complex_multistart`): for the ring-dressed oscillator this is part of
the search, where all starts run as one numpy batch that only locates the
zeros and the scalar multistart, rerun from one start per zero, reports them
(`complex_zeros_drso`).  The Kratzer analogue with a or b nonzero is
polynomial too: the eliminant is its polynomial form and lists those
zeros.  The search does not take them as roots, so those table entries are
audited to class D, with the multistart's nearest pair as a diagnostic.
The audit's complex multistart (`classify_value`) stays scalar: it keeps
every zero its few starts find, so a batch would save nothing.  Its bracket
polish (`_polish_branch_root`) builds the halving ladders of a value's
endpoints once and evaluates them as one array for every principal branch
(`_ladder_record`), which the branches polished at that value share; the
array only locates: the scalar residual decides every endpoint.
"""

from __future__ import annotations

import cmath
import enum
import functools
from dataclasses import dataclass, replace, field
from importlib import resources

import numpy as np

from .brent import brentq
from .model import (
    Kratzer,
    Oscillator,
    PhysicalParams,
    ProblemSpec,
    Pseudospin,
    QuantumNumbers,
    RingParams,
    SpecError,
    Spin,
    branch_sqrt,
)

#: Reference parameter set used by all bundled tables (fm^-1 units).
DEFAULT_PARAMS = {
    "mass": 5.0,
    "c_s": 5.0,
    "c_ps": -5.0,
    "d_e": 15.0,
    "r_e": 0.4,
    "k": 1.0,
}

POLE_TOL = 1e-12


class SpectralPoleError(ArithmeticError):
    """Residual evaluated at a pole of the spectral condition."""


@dataclass(frozen=True)
class BranchStrategy:
    sigma_rhs: int
    sigma_inner: int

    def __post_init__(self):
        if self.sigma_rhs not in (1, -1) or self.sigma_inner not in (1, -1):
            raise ValueError("sigma_rhs and sigma_inner must be +1 or -1")

    def label(self):
        """The signs and the root convention as printed, e.g. 'rhs+inner-,principal'."""
        return f"{_sign_text(self)},principal"


def _sign_text(branch):
    sign = lambda s: "+" if s > 0 else "-"
    return f"rhs{sign(branch.sigma_rhs)}inner{sign(branch.sigma_inner)}"


CANONICAL = BranchStrategy(1, 1)


def principal_branches():
    """The four sign strategies, canonical first; `_search_branches` narrows them per spec.

    Every strategy takes principal square roots.  Reading a real radicand
    x as sqrt(|x|) instead mirrors the partner symmetry's spectrum into the
    window, which no published table contains; only the class-D diagnostic
    of `classify_value` reads the conditions so.
    """
    return [BranchStrategy(srhs, sinn) for srhs in (1, -1) for sinn in (1, -1)]


def _search_branches(spec: ProblemSpec):
    """The principal strategies that differ for this spec, canonical first.

    The oscillator condition never reads sigma_inner, so its inner-flipped
    copies would only repeat the work of the inner+ ones.
    """
    if spec._condition_terms.oscillator:
        return [b for b in principal_branches() if b.sigma_inner == 1]
    return principal_branches()


class RootClass(enum.Enum):
    # a root of the canonical condition; where gamma(E) < 0 it is not a
    # certified level of the sector's reduction
    A = "A"
    B = "B"  # spurious squaring root: vanishes only with sigma_rhs = -1
    C = "C"  # real part of a complex pair of the squared spectral form
    D = "D"  # unexplained


@dataclass(frozen=True)
class ClassifiedRoot:
    energy: complex
    branch: BranchStrategy
    residual_norm: float
    root_class: RootClass

    def __repr__(self):
        return (
            f"ClassifiedRoot({self.energy:.10g}, {self.root_class.value},"
            f" {self.branch.label()}, res={self.residual_norm:.2e})"
        )


def _radical_term(e, spec: ProblemSpec, sq):
    """The potential's radical term at energy e, with square root sq.

    With u = sq(a gamma + 1/4), v = sq(b gamma + m^2) and omega = u + v:
    d = omega + 2 n' + 2 + 2 n for the oscillator, the big radical
    w = sq((omega + 2 n' + 1)^2 + gamma De re^2) for the Kratzer.  e is a
    complex or a complex array.  Like `_condition` and `_squared_at`, it
    reads the spec's numbers from its cached `_condition_terms` record.
    """
    t = spec._condition_terms
    g = e + t.mass - t.c if t.is_spin else e - t.mass - t.c
    omega = sq(t.a * g + 0.25) + sq(t.b * g + t.m_sq)
    if t.oscillator:
        return omega + t.two_n_prime + 2 + t.two_n
    return sq((omega + t.two_n_prime + 1) ** 2 + g * t.d_e * t.r_e_sq)


def _raise_at_pole(at_pole, what):
    if at_pole:
        raise SpectralPoleError(what)
    return True


def _mask_pole(at_pole, what):
    return ~at_pole


def _condition(e, spec: ProblemSpec, sigma_rhs, sigma_inner, sq, pole):
    """(lhs, rhs, valid) of the spectral condition lhs = rhs at energy e.

    e is a complex or a complex array and sq(z) the square root matching
    it; the signs are a BranchStrategy's or, for the scan, (B, 1) columns
    of them, which broadcast every term carrying a sign to B rows while
    the radicals and the lhs are evaluated once per energy.
    pole(at_pole, what) runs before every division that can vanish and
    decides what a pole does: scalar callers raise, the array scan masks;
    `valid` combines its results.
    """
    t = spec._condition_terms
    m_, c = t.mass, t.c
    rad = _radical_term(e, spec, sq)
    if t.oscillator:
        if t.is_spin:
            return (m_ - e) * sq(c - e - m_), sigma_rhs * sq(t.k2) * rad, True
        return (m_ + e) * sq(e - m_ - c), sigma_rhs * sq(-t.k2) * rad, True
    den = t.nu + sigma_inner * rad
    ok = pole(abs(den) < POLE_TOL * (1.0 + abs(rad)), "vanishing Kratzer denominator")
    if t.is_spin:
        lhs_den = m_ + e - c
        ok = ok & pole(
            abs(lhs_den) < POLE_TOL * (1.0 + abs(e)), "spin residual pole: M + E - C_s = 0"
        )
        return (e - m_) / lhs_den, -sigma_rhs * t.t_sq / den**2, ok
    lhs_den = m_ - e + c
    ok = ok & pole(
        abs(lhs_den) < POLE_TOL * (1.0 + abs(e)), "pseudospin residual pole: M - E + C_ps = 0"
    )
    return (e + m_) / lhs_den, sigma_rhs * t.t_sq / den**2, ok


def residual(energy, spec: ProblemSpec, branch: BranchStrategy):
    """Residual lhs - rhs of the spec's spectral condition; 0 at a root.

    Raises SpectralPoleError at a pole of the condition.
    """
    signs = branch.sigma_rhs, branch.sigma_inner
    lhs, rhs, _ = _condition(complex(energy), spec, *signs, branch_sqrt, _raise_at_pole)
    return lhs - rhs


def _check_sigma_rhs(sigma_rhs):
    if sigma_rhs not in (1, -1):
        raise ValueError(f"sigma_rhs must be +1 or -1, got {sigma_rhs!r}")


def _monic_central_eliminant(spec: ProblemSpec, sigma_rhs):
    t = spec._condition_terms
    if t.a != 0 or t.b != 0:
        raise ValueError("squared form is polynomial only for a = b = 0")
    poly = _eliminant(spec, sigma_rhs)
    return poly / poly[0]


def squared_polynomial_drso(spec: ProblemSpec):
    """Monic cubic from squaring the oscillator condition (a = b = 0 only).

    Pseudospin: (M+E)^2 (E-M-C_ps) + 2 k d^2 = 0
    Spin:       (M-E)^2 (C_s-E-M) - 2 k d^2 = 0
    with d = 1/2 + |m| + 2 n' + 2 + 2 n: the `_eliminant` at a = b = 0, made
    monic.  Coefficients are returned highest power first.
    """
    if not spec._condition_terms.oscillator:
        raise TypeError("spec does not carry an Oscillator potential")
    return _monic_central_eliminant(spec, 1)


def squared_polynomial_drsk(spec: ProblemSpec, sigma_rhs: int):
    """Monic quartic from rationalizing the Kratzer condition (a = b = 0).

    Isolating the big radical and squaring once turns the condition for one
    sigma_rhs sign into a quartic, the `_eliminant` at a = b = 0 made monic;
    its real roots are the union of the sigma_inner = +1 and -1 branch roots
    plus squaring artifacts, and its complex pairs generate the tables'
    class-C companions.  Raises ValueError unless sigma_rhs is +1 or -1.
    """
    if spec._condition_terms.oscillator:
        raise TypeError("spec does not carry a Kratzer potential")
    _check_sigma_rhs(sigma_rhs)
    return _monic_central_eliminant(spec, sigma_rhs)


def _squared_at(e, spec: ProblemSpec, sigma_rhs, rad):
    """The squared condition at energy e given its `_radical_term` rad.

    e is a complex or a complex array, matching rad; `_eliminant_at` also
    passes -rad, the Kratzer radical's other root.
    """
    t = spec._condition_terms
    m_, c = t.mass, t.c
    if t.oscillator:
        if t.is_spin:
            return (m_ - e) ** 2 * (c - e - m_) - t.k2 * rad * rad
        return (m_ + e) ** 2 * (e - m_ - c) + t.k2 * rad * rad
    if t.is_spin:
        return (e - m_) * (t.nu + rad) ** 2 + sigma_rhs * t.t_sq * (e + m_ - c)
    return (e + m_) * (t.nu + rad) ** 2 - sigma_rhs * t.t_sq * (m_ - e + c)


def squared_form(energy, spec: ProblemSpec, sigma_rhs: int):
    """The squared condition as an analytic function of complex energy.

    For the oscillator the sigma_rhs sign cancels on squaring; for the
    Kratzer it survives through the cross term and selects which branch
    family the zeros belong to.  sigma_rhs must be +1 or -1 (ValueError).
    """
    _check_sigma_rhs(sigma_rhs)
    e = complex(energy)
    return _squared_at(e, spec, sigma_rhs, _radical_term(e, spec, cmath.sqrt))


def _secant_complex(f, z0, z1):
    f0, f1 = f(z0), f(z1)
    for _ in range(100):
        if f1 == f0:
            return None
        z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
        if not cmath.isfinite(z2):
            return None
        z0, f0, z1, f1 = z1, f1, z2, f(z2)
        if abs(z1 - z0) < 1e-13 * (1.0 + abs(z1)):
            return z1
    return None


def _complex_multistart(spec: ProblemSpec, x, imag_starts, sigma_rhs=1):
    """Off-axis zeros of the squared form reached by secant from above x.

    One secant run per imaginary offset im, started from the pair
    (x + i im, x (1 + 1e-4) + 1e-4 + 1.01 i im).  A zero is kept when it is
    off the real axis and the squared form vanishes there to
    1e-8 (1 + |z|)^degree, the degree of the squared form (3 for the
    oscillator, 4 for the Kratzer); kept zeros are reflected into the upper
    half-plane.
    """
    degree = 3 if spec._condition_terms.oscillator else 4
    f = lambda z: squared_form(z, spec, sigma_rhs)
    out = []
    for im in imag_starts:
        z = _secant_complex(f, complex(x, im), complex(x * (1 + 1e-4) + 1e-4, im * 1.01))
        if z is not None and abs(z.imag) > 1e-8 and abs(f(z)) < 1e-8 * (1 + abs(z)) ** degree:
            out.append(complex(z.real, abs(z.imag)))
    return out


def _multistart_batch(spec: ProblemSpec, xs, imag_starts):
    """`_complex_multistart` over every (x, im) start at once, as numpy arrays.

    Returns one entry per start in (x, im) order: the accepted zero, reflected
    into the upper half-plane, or None.  Each lane follows the scalar secant
    (same starts, stopping rules, 100-step cap and acceptance test) and drops
    out of the live set when it converges or fails.  numpy's complex
    multiply, divide and abs can differ from CPython's in the last bit, so a
    lane only locates its zero; the reported value comes from the scalar run.
    """
    x = np.repeat(np.asarray(xs, dtype=float), len(imag_starts))
    im = np.tile(np.asarray(imag_starts, dtype=float), len(xs))
    z0 = np.empty(x.size, dtype=complex)
    z0.real, z0.imag = x, im
    z1 = np.empty(x.size, dtype=complex)
    z1.real, z1.imag = x * (1 + 1e-4) + 1e-4, im * 1.01
    f = lambda z: _squared_at(z, spec, 1, _radical_term(z, spec, np.sqrt))
    degree = 3 if spec._condition_terms.oscillator else 4
    found = np.full(z0.size, np.nan, dtype=complex)
    live = np.arange(z0.size)
    with np.errstate(all="ignore"):
        f0, f1 = f(z0), f(z1)
        for _ in range(100):
            if not live.size:
                break
            z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
            keep = (f1 != f0) & np.isfinite(z2.real) & np.isfinite(z2.imag)
            live, z0, f0, z1 = live[keep], z1[keep], f1[keep], z2[keep]
            f1 = f(z1)
            done = np.abs(z1 - z0) < 1e-13 * (1.0 + np.abs(z1))
            found[live[done]] = z1[done]
            keep = ~done
            live, z0, f0, z1, f1 = live[keep], z0[keep], f0[keep], z1[keep], f1[keep]
        ok = np.abs(found.imag) > 1e-8
        ok &= np.abs(f(found)) < 1e-8 * (1 + np.abs(found)) ** degree
    return [complex(z.real, abs(z.imag)) if hit else None for z, hit in zip(found, ok)]


def complex_zeros_drso(spec: ProblemSpec, interval):
    """Complex zeros of the squared oscillator form inside the Re-interval.

    Starts at every unit step along the interval, each with the imaginary
    offsets 0.5, 2 and 6.  One numpy batch (`_multistart_batch`) runs all
    starts; the accepted lanes are walked in (re, im) order and, for each
    zero not yet reported, the scalar `_complex_multistart` is rerun from
    that lane and gives the reported value.  A lane whose scalar rerun fails leaves its
    zero to the next lane that lands on it.  The result equals running the
    scalar multistart from every start, at a fraction of the evaluations.
    """
    lo, hi = interval
    xs, imag_starts = np.arange(lo, hi + 0.5, 1.0), (0.5, 2.0, 6.0)
    located = _multistart_batch(spec, xs, imag_starts)
    starts = [(x, im) for x in xs for im in imag_starts]
    zeros = []
    new = lambda z: lo - 1e-9 <= z.real <= hi + 1e-9 and all(
        abs(z - w) > 1e-7 * (1 + abs(z)) for w in zeros
    )
    for (x, im), zb in zip(starts, located):
        if zb is None or not new(zb):
            continue
        for z in _complex_multistart(spec, x, (im,)):
            if new(z):
                zeros.append(z)
    return sorted(zeros, key=lambda z: (z.real, z.imag))


def _best_branch(spec, z, branches, tol=None):
    """(branch, |residual|) of the branch with the smallest residual at z.

    Branches with a pole at z are skipped; with tol, a branch qualifies only
    if its residual is below tol * (1 + |lhs| + |rhs|).  None if no branch
    qualifies.
    """
    best = None
    for br in branches:
        signs = br.sigma_rhs, br.sigma_inner
        try:
            lhs, rhs, _ = _condition(complex(z), spec, *signs, branch_sqrt, _raise_at_pole)
        except SpectralPoleError:
            continue
        res = abs(lhs - rhs)
        qualifies = tol is None or res < tol * (1.0 + abs(lhs) + abs(rhs))
        if qualifies and (best is None or res < best[1]):
            best = (br, res)
    return best


def _class_for_branch(branch: BranchStrategy):
    if branch == CANONICAL:
        return RootClass.A
    if branch.sigma_rhs == -1:
        return RootClass.B
    return RootClass.D


def _array_sqrt(z):
    return np.sqrt(np.asarray(z, dtype=complex))


def _residual_array(spec, es, sigma_rhs, sigma_inner):
    """Residual over an energy array; (values, valid mask), poles masked; (B, 1) signs: B rows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lhs, rhs, ok = _condition(
            np.asarray(es, dtype=complex), spec, sigma_rhs, sigma_inner, _array_sqrt, _mask_pole
        )
        vals = lhs - rhs
    return vals, ok & np.isfinite(vals.real) & np.isfinite(vals.imag)


def _eliminant(spec, sigma_rhs):
    """Coefficients, highest power first, of the squared condition's eliminant.

    The squared condition is taken as a polynomial in E and the radicals
    u = sqrt(a gamma + 1/4) and v = sqrt(b gamma + m^2), with u^2 and v^2
    replaced by their radicands; u and v are the constants 1/2 and |m| when
    a = 0 or b = 0.  For the Kratzer, `_squared_at` = A + B w with w^2 = R,
    and A^2 - B^2 R is free of w.  The norm over u -> -u and then v -> -v
    (the product of the conjugates) is free of every radical: degree <= 12
    for the oscillator, <= 16 per sigma_rhs for the Kratzer.  Its real
    roots include every real root of every principal branch of that
    sigma_rhs; the oscillator's squared form does not read sigma_rhs.
    At a = b = 0 it is the squared cubic or quartic, each sum and product
    associated as in the hand-expanded closed forms, so that made monic it
    keeps their rounding bit for bit (tested).
    """
    t = spec._condition_terms
    m_, a, b = t.mass, t.a, t.b
    g = np.array([t.gamma0, 1.0])  # gamma, lowest power first
    radicands = (np.array([a * g[0] + 0.25, a]), np.array([b * g[0] + t.m_sq, b]))

    # an element of Q[E][u, v]: {(i, j): coefficients of u^i v^j, lowest power first}
    def accumulate(out, key, p):
        q = out.get(key)
        if q is None:
            out[key] = p
            return
        if len(q) < len(p):
            q, p = p, q
        q = q.copy()
        q[: len(p)] += p
        out[key] = q

    def add(x, y):
        out = dict(x)
        for key, p in y.items():
            accumulate(out, key, p)
        return out

    def mul(x, y):
        out = {}
        for (i, j), p in x.items():
            for (k, l), q in y.items():
                t = np.convolve(p, q)
                t = np.convolve(t, radicands[0]) if i & k else t
                t = np.convolve(t, radicands[1]) if j & l else t
                accumulate(out, (i ^ k, j ^ l), t)
        return out

    def norm(x, axis):
        conj = {key: -p if key[axis] else p for key, p in x.items()}
        return {key: p for key, p in mul(x, conj).items() if not key[axis]}

    poly = lambda *p: {(0, 0): np.array(p, dtype=float)}
    scale = lambda k, x: {key: k * p for key, p in x.items()}
    omega = add(
        {(1, 0): np.ones(1)} if a else poly(0.5),
        {(0, 1): np.ones(1)} if b else poly(t.abs_m),
    )
    if t.oscillator:
        rad = add(omega, poly(t.two_n_prime + 2 + t.two_n))
        if t.is_spin:
            lhs2 = np.convolve(np.convolve([m_, -1.0], [m_, -1.0]), [t.lhs_pole, -1.0])
        else:
            lhs2 = np.convolve(np.convolve([m_, 1.0], [m_, 1.0]), [t.gamma0, 1.0])
        form = add(poly(*lhs2), mul(scale(-t.k2 if t.is_spin else t.k2, rad), rad))
    else:
        shifted = add(omega, poly(t.two_n_prime + 1))
        shifted2, t_gamma = mul(shifted, shifted), {(0, 0): t.d_e * t.r_e_sq * g}
        big = add(shifted2, t_gamma)
        lead = poly(-m_, 1.0) if t.is_spin else poly(m_, 1.0)  # E - M or E + M
        inner = add(add(poly(t.nu * t.nu), shifted2), t_gamma)  # nu^2 + big
        a_part = add(mul(lead, inner), poly(*(sigma_rhs * t.t_sq * g)))
        form = add(mul(a_part, a_part), scale(-4.0 * t.nu * t.nu, mul(mul(lead, lead), big)))
    if a:
        form = norm(form, 0)
    if b:
        form = norm(form, 1)
    return form[(0, 0)][::-1]


def _eliminant_at(e, spec, sigma_rhs):
    """`_eliminant` at the complex array e, evaluated as the product it expands.

    That is, `_squared_at` over the conjugates u -> -u and v -> -v of the
    radicals present (a, b nonzero) and, for the Kratzer, w -> -w.
    """
    t = spec._condition_terms
    e = np.asarray(e, dtype=complex)
    g = e + t.mass - t.c if t.is_spin else e - t.mass - t.c
    u, v = np.sqrt(t.a * g + 0.25), np.sqrt(t.b * g + t.m_sq)
    out = 1.0
    for su in (1, -1) if t.a else (1,):
        for sv in (1, -1) if t.b else (1,):
            omega = su * u + sv * v
            if t.oscillator:
                out = out * _squared_at(e, spec, sigma_rhs, omega + t.two_n_prime + 2 + t.two_n)
            else:
                w = np.sqrt((omega + t.two_n_prime + 1) ** 2 + g * t.d_e * t.r_e_sq)
                out = out * _squared_at(e, spec, sigma_rhs, w) * _squared_at(e, spec, sigma_rhs, -w)
    return out


def _seeds(spec, lo, hi):
    """Disks about the eliminants' zeros that meet the real axis near [lo, hi].

    np.roots gives an eliminant p one exact 0 per trailing zero coefficient,
    of radius 0, and d other zeros z_i, each with its Weierstrass correction
    W_i = q(z_i) / (lc prod_{j != i} (z_i - z_j)): q is p over the exact
    zeros, evaluated directly (`_eliminant_at`) and not from the rounded
    coefficients, whose first nonzero one is lc.  The zeros of q are the
    eigenvalues of diag(z) - W 1^T, so by Gerschgorin each lies in a disk
    |E - z_i| <= d |W_i| (Smith, JACM 17 (1970) 661; Braess and Hadeler,
    Numer. Math. 21 (1973) 161), up to the rounding of the W_i: the disks
    say where to look and certify nothing.  Returns the real parts of the
    centres and the radii (infinite where not finite) of the disks within 1
    of the window.
    """
    centres, radii = [], []
    for (sigma_rhs, poly), (_, z) in zip(spec._eliminant_coefficients, spec._eliminant_zeros):
        poly = np.trim_zeros(poly)
        d = len(poly) - 1
        gaps = z[:d, None] - z[:d]
        np.fill_diagonal(gaps, 1.0)
        with np.errstate(all="ignore"):
            q = _eliminant_at(z[:d], spec, sigma_rhs) / z[:d] ** (z.size - d)
            r = d * np.abs(q / (poly[0] * gaps.prod(axis=1)))
        centres.append(z)
        radii.append(np.concatenate([np.where(np.isnan(r), np.inf, r), np.zeros(z.size - d)]))
    z, r = np.concatenate(centres), np.concatenate(radii)
    near = (np.abs(z.imag) <= r) & (z.real - r < hi + 1.0) & (z.real + r > lo - 1.0)
    return z.real[near], r[near]


#: Grid panels tested on each side of those a seed disk's real-axis shadow
#: overlaps, so a disk of radius 0 marks 2 SEED_PANELS + 1 panels.  A root on
#: a grid point is bracketed by the panel it ends, and the disks are floats.
SEED_PANELS = 2


def _scan_branches(spec, interval):
    """Real roots of each search branch's restriction, one root list per branch.

    The branches are `_search_branches(spec)`, in that order.  The grid is
    np.linspace(lo, hi, n + 1) with n = PANELS_PER_UNIT panels per unit
    energy, and a root is bracketed by a sign change between two
    neighbouring grid points.  Only the panels under a seed disk of the
    eliminants' zeros are tested (`_seeds`): a disk of centre x + iy and
    radius r marks panels i - SEED_PANELS .. j + SEED_PANELS, where i .. j
    are the panels [x - r, x + r] overlaps (the one holding x if r = 0),
    and all marked panels are evaluated for all branches at once, in one
    `_residual_array` call on (B, 1) columns of the branch signs.  On the
    real axis the residual of a branch restriction is real wherever all
    radicals are real, but the oscillator conditions turn purely imaginary
    below the symmetry threshold; zeros are therefore bracketed on whichever
    component dominates while the other stays negligible, and polished by
    brentq on the scalar residual: per branch, the real-component brackets
    first, then the imaginary ones, each in ascending order.  Each bracket
    found is one a full sign-change scan of the grid finds, with the same
    root; that the disks mark every such bracket is checked against the
    full scan in the tests, not certified.  A zero on a grid point is
    bracketed once, by the panel it ends.
    """
    branches = _search_branches(spec)
    lo, hi = interval
    n = max(16, int(round((hi - lo) * PANELS_PER_UNIT)))
    es = np.linspace(lo, hi, n + 1)
    h = (hi - lo) / n
    x, r = _seeds(spec, lo, hi)
    at = lambda e: np.clip((e - lo) / h, -SEED_PANELS - 1.0, n)
    first = np.floor(at(x - r))
    last = np.maximum(first, np.ceil(at(x + r)) - 1)
    marked = np.zeros(n, dtype=bool)
    for i, j in zip(first.astype(int).tolist(), last.astype(int).tolist()):
        marked[max(0, i - SEED_PANELS) : max(0, j + SEED_PANELS + 1)] = True
    panels = np.flatnonzero(marked)
    pts = np.union1d(panels, panels + 1)
    left = np.searchsorted(pts, panels)  # pts[left + 1] == panels + 1
    signs = [np.array([[getattr(b, s)] for b in branches]) for s in ("sigma_rhs", "sigma_inner")]
    vals, ok = _residual_array(spec, es[pts], *signs)
    ok &= np.abs(vals) < 1e8  # never bisect across a pole
    size = {"real": np.abs(vals.real), "imag": np.abs(vals.imag)}
    comps = ("real", "imag")
    change = {}
    for comp, other in zip(comps, comps[::-1]):
        good = ok & (size[other] < 1e-9 * (1.0 + size[comp]))
        sign = np.sign(getattr(vals, comp))
        change[comp] = good[:, left] & good[:, left + 1] & (sign[:, left] != sign[:, left + 1])
        change[comp] &= sign[:, left] != 0  # a zero on a grid point ends its panel
    roots = []
    for row, br in enumerate(branches):
        roots.append([])
        for comp in comps:
            fn = lambda x: getattr(residual(x, spec, br), comp)
            for i in panels[change[comp][row]]:
                try:
                    roots[-1].append(brentq(fn, es[i], es[i + 1], xtol=1e-14))
                except (ValueError, SpectralPoleError):
                    continue
    return roots


def _polynomial_roots(spec, zeros, paper_compat):
    """Roots of the exact squared-polynomial paths (a = b = 0 only).

    zeros is the spec's `_eliminant_zeros`, or part of each array of them:
    every zero is handled on its own, so a part gives the roots of its
    zeros, in the same order.  A real zero x is polished at span 1e-6,
    which keeps the root within 1e-6 2^(POLISH_GROW_STEPS - 1) of x;
    `classify_value` passes only the zeros within that reach and its match
    tolerance of the value, `find_roots` all of them.
    """
    out = []
    search = _search_branches(spec)
    for srhs, zs in zeros:
        for z in zs:
            if abs(z.imag) < 1e-9 * (1.0 + abs(z)):
                e = z.real
                for br in search:
                    polished = _polish_branch_root(spec, br, e, span=1e-6)
                    if polished is not None:
                        e = polished
                        break
                hit = _best_branch(spec, e, search, tol=1e-6)
                if hit is None:
                    continue  # squaring artifact of the rationalization
                br, res = hit
                out.append(ClassifiedRoot(complex(e), br, res, _class_for_branch(br)))
            elif paper_compat and z.imag > 0:
                f = lambda w: squared_form(w, spec, srhs)
                zz = _secant_complex(f, complex(z), complex(z) * (1 + 1e-8) + 1e-8j)
                zz = complex(z) if zz is None else complex(zz.real, abs(zz.imag))
                best = _best_branch(spec, zz, search)
                if best is not None:
                    out.append(ClassifiedRoot(zz, best[0], best[1], RootClass.C))
    return out


def _dedupe(roots):
    roots = sorted(roots, key=lambda r: (r.energy.real, abs(r.energy.imag), r.residual_norm))
    kept = []
    for r in roots:
        dup = None
        for i, s in enumerate(kept):
            if (
                abs(r.energy.real - s.energy.real) < 1e-8
                and abs(abs(r.energy.imag) - abs(s.energy.imag)) < 1e-8
            ):
                dup = i
                break
        if dup is None:
            kept.append(r)
        elif r.residual_norm < kept[dup].residual_norm:
            kept[dup] = r
    return kept


#: Grid panels per unit energy of the real-axis sign-change scan.
PANELS_PER_UNIT = 2000
#: Largest residual norm of a reported root.
ROOT_TOL = 1e-10


def find_roots(spec: ProblemSpec, *, mode):
    """Classified spectrum points of the spec in the window (-M - 20, M + 20).

    The search covers the principal strategies (`_search_branches`).
    strict mode keeps only class-A roots: roots of the canonical condition,
    which where gamma(E) < 0 are not certified levels of the sector's
    reduction.  paper-compat additionally reports sigma_rhs = -1 roots and
    the real parts of complex pairs of the squared forms, reproducing the
    published tables.  Real roots come from the sign-change rule on a grid of
    PANELS_PER_UNIT panels per unit energy, tested for all searched
    branches on the panels under disks about the eliminant's zeros
    (`_scan_branches`), plus the exact polynomial paths when a = b = 0;
    complex pairs of the ring-dressed oscillator come from
    `complex_zeros_drso`, batch-located and finished by the scalar secant.
    A root is reported when its residual norm is at most ROOT_TOL.
    Non-convergent starts of the complex search are dropped silently; an
    empty result is an ordinary outcome.

    Raises ValueError for an unknown mode.
    """
    if mode not in ("strict", "paper-compat"):
        raise ValueError("mode must be 'strict' or 'paper-compat'")
    t = spec._condition_terms
    interval = lo, hi = (-t.mass - 20.0, t.mass + 20.0)
    paper_compat = mode == "paper-compat"
    search = _search_branches(spec)

    found = []
    central = t.a == 0 and t.b == 0
    if central:
        found.extend(_polynomial_roots(spec, spec._eliminant_zeros, paper_compat))
    # real-line scan over the searched branches (everything the polynomial
    # path already found will be merged away by deduplication)
    for br, roots in zip(search, _scan_branches(spec, interval)):
        for e in roots:
            hit = _best_branch(spec, e, [br], tol=1e-6)
            if hit is None:
                continue
            found.append(ClassifiedRoot(complex(e), br, hit[1], _class_for_branch(br)))
    if paper_compat and t.oscillator and not central:
        for z in complex_zeros_drso(spec, interval):
            best = _best_branch(spec, z, search)
            if best is not None:
                found.append(ClassifiedRoot(z, best[0], best[1], RootClass.C))

    found = [
        r for r in found if lo - 1e-9 <= r.energy.real <= hi + 1e-9 and r.residual_norm <= ROOT_TOL
    ]
    # roots living only on inner-flipped branches (class D) are outside the
    # published tables' taxonomy
    kept = (RootClass.A, RootClass.B, RootClass.C) if paper_compat else (RootClass.A,)
    found = [r for r in _dedupe(found) if r.root_class in kept]
    found.sort(key=lambda r: (r.energy.real, r.energy.imag))
    return found


def spin_pseudospin_map(spec: ProblemSpec) -> ProblemSpec:
    """Swap the symmetry limit: C_ps <-> -C_s, kappa shifted by one unit.

    This is the bookkeeping half of the formula-level mapping between the
    two symmetry limits.  The full substitution behind the printed closed
    forms also sends E -> -E and V -> -V (flipping d_e, k and the ring
    strengths); with all of it applied, the pseudospin-form residual at -E
    equals minus the spin residual at E identically.  The returned spec
    keeps the physical (positive) potential parameters, so spectra of a
    spec and its image describe distinct problems that share one formula
    family.  Applying the map twice returns the original spec.

    Raises SpecError for the kappa whose partner would be 0: kappa = -1
    under spin, kappa = 1 under pseudospin.
    """
    qn = spec.qn
    if isinstance(spec.symmetry, Pseudospin):
        sym = Spin(-spec.symmetry.constant)
        kappa = None if qn.kappa is None else qn.kappa - 1
    else:
        sym = Pseudospin(-spec.symmetry.constant)
        kappa = None if qn.kappa is None else qn.kappa + 1
    if kappa == 0:
        raise SpecError(f"kappa = {qn.kappa} has no spin-pseudospin partner (it maps to 0)")
    return replace(spec, symmetry=sym, qn=replace(qn, kappa=kappa))


# ---------------------------------------------------------------------------
# table audit
# ---------------------------------------------------------------------------

TABLE_KINDS = {
    1: ("pseudospin", "kratzer"),
    2: ("pseudospin", "oscillator"),
    3: ("spin", "kratzer"),
    4: ("spin", "oscillator"),
}


def table_spec(table_id: int, n, n_prime, m, a, b, params=None) -> ProblemSpec:
    """ProblemSpec for one cell of a bundled table."""
    if table_id not in TABLE_KINDS:
        raise ValueError(f"unknown table id {table_id}")
    p = dict(DEFAULT_PARAMS)
    if params:
        p.update(params)
    sym_kind, pot_kind = TABLE_KINDS[table_id]
    sym = Spin(p["c_s"]) if sym_kind == "spin" else Pseudospin(p["c_ps"])
    pot = Kratzer(p["d_e"], p["r_e"]) if pot_kind == "kratzer" else Oscillator(p["k"])
    return ProblemSpec(
        symmetry=sym,
        potential=pot,
        ring=RingParams(a, b),
        params=PhysicalParams(p["mass"]),
        qn=QuantumNumbers(n=n, n_prime=n_prime, m=m),
    )


def load_table_data(table_id: int, path=None):
    """Rows (n, n_prime, m, a, b, [values...]) of a bundled or external table.

    The columnar format is `n n_prime m a b value1 [value2 [value3]]` with
    `#` comments; it is documented in the README.  A row with too few
    columns or a NaN or infinite published value raises ValueError.
    """
    if path is None:
        if table_id not in TABLE_KINDS:
            raise ValueError(f"unknown table id {table_id}")
        text = resources.files("drsbound.data").joinpath(f"table{table_id}.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 6:
            raise ValueError(f"malformed table row: {line!r}")
        n, n_prime, m = (int(x) for x in parts[:3])
        a, b = (float(x) for x in parts[3:5])
        values = [float(x) for x in parts[5:]]
        if not all(np.isfinite(values)):
            raise ValueError(f"malformed table row (non-finite value): {line!r}")
        rows.append((n, n_prime, m, a, b, values))
    return rows


@dataclass
class AuditEntry:
    n: int
    n_prime: int
    m: int
    a: float
    b: float
    value: float
    root_class: RootClass
    deviation: float | None
    branch: str | None
    residual: float | None
    diagnostics: dict | None

    def to_json(self):
        out = {
            "n": self.n,
            "n_prime": self.n_prime,
            "m": self.m,
            "a": self.a,
            "b": self.b,
            "value": self.value,
            "class": self.root_class.value,
            "deviation": self.deviation,
            "branch": self.branch,
            "residual": self.residual,
        }
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out


@dataclass
class AuditReport:
    table_id: int
    entries: list = field(default_factory=list)

    #: How every bundled table is read; `to_json` and `to_text` print it.
    NOTE = "second table column (printed n-tilde) interpreted as the polar quantum number n_prime"

    @property
    def summary(self):
        counts = {c.value: 0 for c in RootClass}
        for e in self.entries:
            counts[e.root_class.value] += 1
        return counts

    def to_json(self):
        return {
            "table": self.table_id,
            "note": self.NOTE,
            "summary": self.summary,
            "entries": [e.to_json() for e in self.entries],
        }

    def to_text(self):
        lines = [f"table {self.table_id} audit: {self.NOTE}"]
        for e in self.entries:
            dev = "-" if e.deviation is None else f"{e.deviation:.3e}"
            lines.append(
                f"  ({e.n},{e.n_prime},{e.m}) a={e.a:g} b={e.b:g} "
                f"value={e.value:.10g} class={e.root_class.value} dev={dev}"
            )
        lines.append("  summary: " + " ".join(f"{c}={k}" for c, k in self.summary.items()))
        return "\n".join(lines)


#: Evaluations per endpoint of the polish's halving ladder, its first point included.
LADDER_POINTS = 60


@functools.lru_cache(maxsize=1)
def _ladder_record(spec, value, ends):
    """(points, bounds, values, valid) of the halving ladders of every end, on every branch.

    The ladder of an end e0 is e_j = value + 0.5 (e_{j-1} - value) for
    j = 1 .. LADDER_POINTS - 1, ending before the first point within
    1e-15 (1 + |value|) of value: the points the scalar ladder tests after
    e0.  The recurrence runs on Python floats, the same IEEE operations the
    scalar ladder makes.  All points are kept in one array, end i's at
    points[bounds[i]:bounds[i + 1]], and evaluated in one `_residual_array`
    call on (B, 1) columns of the `principal_branches()` signs, one row per
    branch in that order.  A record is a pure function of its arguments, so
    every branch polished at one value shares the one record kept; its
    arrays are read-only.
    """
    stop = 1e-15 * (1.0 + abs(value))
    pts, bounds = [], [0]
    for e in ends:
        d = e - value
        for _ in range(LADDER_POINTS - 1):
            e = value + 0.5 * d
            d = e - value
            if -stop < d < stop:
                break
            pts.append(e)
        bounds.append(len(pts))
    pts = np.array(pts, dtype=float)
    branches = principal_branches()
    signs = [np.array([[getattr(b, s)] for b in branches]) for s in ("sigma_rhs", "sigma_inner")]
    vals, ok = _residual_array(spec, pts, *signs)
    for a in (pts, vals, ok):
        a.setflags(write=False)
    return pts, tuple(bounds), vals, ok


def _ladder_candidates(spec, branch, comp, value, ends, i):
    """Points of the halving ladders of ends[i:] that the scalar test must decide.

    They are read from the branch's row of the `_ladder_record` of (spec,
    value, ends).  A point is dropped only where the row clearly rejects it:
    finite, not a pole, and the component other than `comp` above the
    usable threshold 1e-9 (1 + |main|) by more than 1e-6 of the threshold.
    Anything else (array-usable, near the threshold, non-finite or masked
    as a pole) is kept for the scalar test, because numpy's complex sqrt,
    multiply and divide can differ from CPython's in the last bit.  Returns
    one list of floats per end, in ladder order.
    """
    pts, bounds, vals, ok = _ladder_record(spec, value, ends)
    row = principal_branches().index(branch)
    vals = vals[row]
    main = np.abs(getattr(vals, comp))
    other = np.abs(vals.imag if comp == "real" else vals.real)
    keep = ~ok[row] | (other <= 1e-9 * (1.0 + main) * (1.0 + 1e-6))
    return [pts[a:b][keep[a:b]].tolist() for a, b in zip(bounds[i:-1], bounds[i + 1 :])]


#: Bracket widths `_polish_branch_root` tries: span, 2 span, .. 128 span.
POLISH_GROW_STEPS = 8


def _polish_branch_root(spec, branch, value, span=2e-3):
    """Real root of a principal branch's residual near `value`, by bracket expansion.

    Bisects whichever residual component (real or imaginary) dominates near
    the value; the bracket is clipped at the condition's first-order pole
    and endpoints landing outside the component's validity region (complex
    radicals, poles) are shrunk back toward the value along a halving
    ladder.  Each endpoint's first point is tested by the scalar residual;
    the first time one fails, the ladders of every remaining endpoint are
    read from the value's `_ladder_record`, built and evaluated once for
    every branch polished there (`_ladder_candidates`).  The batch only
    locates: each endpoint is the first of its kept ladder points that the
    scalar test accepts, with the value and sign that test computed, so the
    bracket, and brentq's root, are those of the plain scalar ladder.
    """
    pole = spec._condition_terms.lhs_pole
    if abs(value - pole) < 1e-12:
        return None
    try:
        r0 = residual(value, spec, branch)
    except SpectralPoleError:
        return None
    comp = "imag" if abs(r0.imag) > abs(r0.real) else "real"
    fn = lambda e: getattr(residual(e, spec, branch), comp)

    def usable(e):
        try:
            r = residual(e, spec, branch)
        except SpectralPoleError:
            return None
        if not cmath.isfinite(r):
            return None
        main = getattr(r, comp)
        other = r.imag if comp == "real" else r.real
        if abs(other) > 1e-9 * (1.0 + abs(main)):
            return None
        return main

    ends = []  # lo, hi of each grow step
    width = span
    for _ in range(POLISH_GROW_STEPS):
        lo, hi = value - width, value + width
        if lo < pole < hi:
            if value > pole:
                lo = pole + 1e-9
            else:
                hi = pole - 1e-9
        ends += [lo, hi]
        width *= 2.0
    ladders = {}

    def shrink_to_usable(i):
        e = ends[i]
        val = usable(e)
        if val is not None:
            return e, val
        if i not in ladders:
            found = _ladder_candidates(spec, branch, comp, value, tuple(ends), i)
            ladders.update(zip(range(i, len(ends)), found))
        for e in ladders[i]:
            val = usable(e)
            if val is not None:
                return e, val
        return None, None

    for step in range(POLISH_GROW_STEPS):
        lo, flo = shrink_to_usable(2 * step)
        hi, fhi = shrink_to_usable(2 * step + 1)
        if (
            lo is not None
            and hi is not None
            and hi > lo
            and np.sign(flo) != np.sign(fhi)
        ):
            try:
                return brentq(fn, lo, hi, xtol=1e-14)
            except (ValueError, SpectralPoleError):
                return None
    return None


def _check_tolerance(tolerance):
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")


def _modulus_sqrt(z):
    """The class-D diagnostic's modulus reading: sqrt(|x|) of a real x, else principal."""
    z = complex(z)
    if z.imag == 0.0:
        return complex(abs(z.real) ** 0.5)
    return cmath.sqrt(z)


def classify_value(spec: ProblemSpec, value: float, match_tol):
    """Audit one published number against every branch and squared form.

    Candidates are gathered one class at a time, and the first class that
    has one decides: A (the canonical branch's polish and the central
    polynomial path's A roots), then B (the sigma_rhs = -1 polishes and
    path roots), then C (complex pairs), then D (the rhs+inner- polish and
    path roots).  Within the class the candidate nearest the value wins,
    the first gathered on a tie.  Each search branch is polished from the
    value at most once per call, and only when its class is reached; a
    value with no candidate has polished every branch, for the class-D
    diagnostic.  The result is the one ranking every candidate would give,
    since a later class can only lose; a polish or multistart skipped
    because an earlier class matched can no longer raise.

    For a central spec (a = b = 0) the exact polynomial path adds real
    roots, computed only from the eliminant zeros whose real part x lies
    within match_tol + R of the value, R = 1e-6 2^(POLISH_GROW_STEPS - 1)
    = 1.28e-4.  The path's span-1e-6 polish cannot carry a root out of its
    widest bracket [x - R, x + R], so the restriction is exact: it drops
    only zeros whose root cannot match.  Complex pairs are read from all
    the zeros; for the ring-dressed oscillator a secant multistart from the
    value finds them.

    Raises ValueError if the value is not finite or the match tolerance is
    not finite and positive.
    """
    if not np.isfinite(value):
        raise ValueError(f"value must be finite, got {value!r}")
    _check_tolerance(match_tol)
    search = _search_branches(spec)
    roots = {}  # branch -> its polished root, or None

    def polish_candidates(klass):
        out = []
        for br in search:
            if _class_for_branch(br) is not klass:
                continue
            root = roots[br] = _polish_branch_root(spec, br, value)
            if root is None or abs(root - value) > match_tol:
                continue
            hit = _best_branch(spec, root, [br], tol=1e-8)
            if hit is not None:
                out.append((abs(root - value), br.label(), hit[1]))
        return out

    t = spec._condition_terms
    central = t.a == 0 and t.b == 0
    path = []  # (class, deviation, branch label, residual) of the polynomial path
    pair_zeros = []
    if central:
        # the exact polynomial paths catch real roots the bracketing polish
        # cannot reach (radical branch points, purely imaginary residuals).
        # A zero is kept when the float bracket [x - reach, x + reach] its
        # polish stays in comes within match_tol of the value
        zeros = spec._eliminant_zeros
        reach = 1e-6 * 2.0 ** (POLISH_GROW_STEPS - 1)
        near = lambda x: np.maximum(x - reach - value, value - (x + reach)) <= match_tol
        zeros_near = [(srhs, zs[near(zs.real)]) for srhs, zs in zeros]
        for r in _polynomial_roots(spec, zeros_near, paper_compat=False):
            dev = abs(r.energy.real - value)
            if dev <= match_tol:
                path.append((r.root_class, dev, r.branch.label(), r.residual_norm))
        pair_zeros = [z for _, zs in zeros for z in zs if z.imag > 1e-7]
    for klass in (RootClass.A, RootClass.B, RootClass.C, RootClass.D):
        if klass is RootClass.C:
            if t.oscillator and not central:
                pair_zeros = _complex_multistart(spec, value, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
            candidates = []
            for z in pair_zeros:
                dev = abs(z.real - value)
                best = _best_branch(spec, z, search) if dev <= match_tol else None
                if best is not None:
                    candidates.append((dev, best[0].label(), best[1]))
        else:
            candidates = polish_candidates(klass) + [c[1:] for c in path if c[0] is klass]
        if candidates:
            dev, br, res = min(candidates, key=lambda c: c[0])
            return klass, dev, br, res, None
    # class D: report how close the search came.  Every search branch has
    # been polished by now (class D still polishes them all), and
    # nearest_root is their root nearest the value (reach 128 x 2e-3), the
    # first in search order on a tie, else None.  branch_residuals holds
    # |lhs - rhs| on the four strategies under principal roots, then under
    # the modulus reading; None at a pole.
    nearest = None
    for br in search:
        root = roots[br]
        if root is not None and (nearest is None or abs(root - value) < abs(nearest - value)):
            nearest = root
    diag = {"branch_residuals": {}, "nearest_root": nearest, "nearest_pair_re": None}
    for reading, sq in (("principal", branch_sqrt), ("modulus", _modulus_sqrt)):
        for br in principal_branches():
            signs = br.sigma_rhs, br.sigma_inner
            try:
                lhs, rhs, _ = _condition(complex(value), spec, *signs, sq, _raise_at_pole)
                res = abs(lhs - rhs)
            except SpectralPoleError:
                res = None
            diag["branch_residuals"][f"{_sign_text(br)},{reading}"] = res
    near_pairs = []
    if not t.oscillator and not central:
        # informational only, so it runs for a class-D value alone: the
        # ring-dressed squared Kratzer form's zeros are zeros of its
        # polynomial form, the eliminant, but not part of the search space
        for srhs in (1, -1):
            near_pairs.extend(_complex_multistart(spec, value, (0.5, 1.0, 2.0, 4.0), srhs))
    if pair_zeros:
        near_pairs.extend(pair_zeros)
    if near_pairs:
        zbest = min(near_pairs, key=lambda z: abs(z.real - value))
        diag["nearest_pair_re"] = zbest.real
    return RootClass.D, None, None, None, diag


def audit_table(table_id: int, rows, tolerance, params) -> AuditReport:
    """Classify every published value of the given rows of one table; never fails on class D.

    rows are (n, n_prime, m, a, b, [values...]) as `load_table_data` returns
    them, and params the physical parameters `table_spec` takes (None for
    DEFAULT_PARAMS).  Raises ValueError for an unknown table, a tolerance
    that is not finite and positive, and a published value that is not
    finite.
    """
    if table_id not in TABLE_KINDS:
        raise ValueError(f"unknown table id {table_id}")
    _check_tolerance(tolerance)
    report = AuditReport(table_id)
    for n, n_prime, m, a, b, values in rows:
        spec = table_spec(table_id, n, n_prime, m, a, b, params)
        for v in values:
            klass, dev, br, res, diag = classify_value(spec, v, tolerance)
            report.entries.append(
                AuditEntry(n, n_prime, m, a, b, v, klass, dev, br, res, diag)
            )
    return report
