"""Spectral conditions, root finding, root classification and table audits.

The four closed-form spectral conditions (Kratzer/oscillator under either
symmetry limit) are implemented as complex residual functions parameterized
by a branch strategy: the overall sign of the right-hand side (sigma_rhs,
equivalently the sign carried by sqrt(-beta^2)), the sign attached to the
big Kratzer radical in the denominator (sigma_inner), and the square-root
convention.  Published tables mix three kinds of entries:

  A  genuine roots of the canonical branch,
  B  roots that appear only after flipping sigma_rhs (squaring artifacts),
  C  real parts of complex-conjugate root pairs of the squared (rationalized)
     form of the condition,
  D  entries matched by none of the above within tolerance.

Each condition is defined once (`_condition`) and serves both scalar
evaluation, where a pole raises SpectralPoleError, and the vectorized
real-axis scan, where poles are masked; the squared form (`_squared`) is
likewise one body for scalar and array evaluation and shares the radical
term (`_radical_term`).

The real-axis scan (`_scan_branches`) evaluates every requested branch of a
sqrt mode in one pass: the branch signs are stacked as columns, so the
radicals are taken once per energy, and the grid is walked in blocks of
SCAN_BLOCK points so the temporaries are reused rather than allocated per
grid.  Sign changes are polished by brentq on the scalar residual.

For the pure central cases (a = b = 0) the squared forms are polynomials --
a cubic for the oscillator, one quartic per sigma_rhs for the Kratzer -- and
are solved exactly through companion matrices.  Elsewhere the squared form
stays transcendental and its complex zeros are located by one secant
multistart (`_complex_multistart`): for the ring-dressed oscillator this is
part of the search, where all starts run as one numpy batch that only
locates the zeros and the scalar multistart, rerun from one start per zero,
reports them (`complex_zeros_drso`); the Kratzer analogue with a or b
nonzero has no polynomial form and no agreed generation convention, so
those table entries are audited to class D, with the multistart's nearest
pair as a diagnostic, rather than guessed at.  The audit's complex
multistart (`classify_value`) stays scalar: it keeps every zero its few
starts find, so a batch would save nothing.  Its bracket polish
(`_polish_branch_root`) evaluates the halving ladders of endpoints that need
them as one array, which only locates: the scalar residual decides every
endpoint.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, replace, field
from importlib import resources

import numpy as np
from scipy.optimize import brentq

from .model import (
    SQRT_MODULUS,
    SQRT_PRINCIPAL,
    Kratzer,
    Oscillator,
    PhysicalParams,
    ProblemSpec,
    Pseudospin,
    QuantumNumbers,
    RingParams,
    Spin,
    branch_sqrt,
    coefficients_at_gamma,
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
    sigma_rhs: int = 1
    sigma_inner: int = 1
    sqrt_mode: str = SQRT_PRINCIPAL

    def __post_init__(self):
        if self.sigma_rhs not in (1, -1) or self.sigma_inner not in (1, -1):
            raise ValueError("sigma_rhs and sigma_inner must be +1 or -1")
        if self.sqrt_mode not in (SQRT_PRINCIPAL, SQRT_MODULUS):
            raise ValueError("unknown sqrt mode")

    def label(self):
        return (
            f"rhs{'+' if self.sigma_rhs > 0 else '-'}"
            f"inner{'+' if self.sigma_inner > 0 else '-'}"
            f",{self.sqrt_mode}"
        )


CANONICAL = BranchStrategy(1, 1, SQRT_PRINCIPAL)


def all_branches():
    """Every enumerable strategy, canonical first."""
    out = []
    for mode in (SQRT_PRINCIPAL, SQRT_MODULUS):
        for srhs in (1, -1):
            for sinn in (1, -1):
                out.append(BranchStrategy(srhs, sinn, mode))
    return out


def principal_branches():
    """The four principal-sqrt strategies; `_search_branches` narrows them per spec.

    The modulus convention turns out to mirror the partner symmetry's
    spectrum into the search window (it erases exactly the sign information
    the symmetry limits differ by), which no published table contains, so it
    is scanned only on explicit request.
    """
    return [b for b in all_branches() if b.sqrt_mode == SQRT_PRINCIPAL]


def _search_branches(spec: ProblemSpec):
    """The principal strategies that differ for this spec, canonical first.

    The oscillator condition never reads sigma_inner, so its inner-flipped
    copies would only repeat the work of the inner+ ones.
    """
    if isinstance(spec.potential, Oscillator):
        return [b for b in principal_branches() if b.sigma_inner == 1]
    return principal_branches()


class RootClass(enum.Enum):
    A = "A"  # genuine bound root of the canonical branch
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


def angular_quantization(gamma, ring: RingParams, m: int, n_prime: int, sqrt_mode=SQRT_PRINCIPAL):
    """Quantized ell + 1/2 = sqrt(a g + 1/4) + sqrt(b g + m^2) + 2 n' + 1 (ell_eff)."""
    if n_prime < 0:
        raise ValueError("n_prime must be nonnegative")
    qn = QuantumNumbers(n_prime=n_prime, m=m)
    return coefficients_at_gamma(gamma, None, None, None, ring, qn, sqrt_mode).ell_eff


def _radical_term(e, spec: ProblemSpec, sq):
    """The potential's radical term at energy e, with square root sq.

    With omega = sq(a gamma + 1/4) + sq(b gamma + m^2): d = omega + 2 n' + 2
    + 2 n for the oscillator, the big radical sq((omega + 2 n' + 1)^2 +
    gamma De re^2) for the Kratzer.  e is a complex or a complex array.
    """
    m_, c = spec.mass, spec.symmetry.constant
    g = e + m_ - c if spec.is_spin else e - m_ - c
    omega = sq(spec.ring.a * g + 0.25) + sq(spec.ring.b * g + spec.qn.m**2)
    if isinstance(spec.potential, Oscillator):
        return omega + 2 * spec.qn.n_prime + 2 + 2 * spec.qn.n
    pot = spec.potential
    return sq((omega + 2 * spec.qn.n_prime + 1) ** 2 + g * pot.d_e * pot.r_e**2)


def _raise_at_pole(at_pole, what):
    if at_pole:
        raise SpectralPoleError(what)
    return True


def _mask_pole(at_pole, what):
    return ~at_pole


def _condition(e, spec: ProblemSpec, branch: BranchStrategy, sqrt, pole):
    """(lhs, rhs, valid) of the spectral condition lhs = rhs at energy e.

    e is a complex or a complex array and sqrt(z, mode) the square root
    matching it; branch is a BranchStrategy or, for the scan, a
    `_BranchStack` whose (B, 1) signs broadcast the result to B rows.
    pole(at_pole, what) runs before every division that can vanish and
    decides what a pole does: scalar callers raise, the array scan masks;
    `valid` combines its results.
    """
    sq = lambda z: sqrt(z, branch.sqrt_mode)
    m_, c = spec.mass, spec.symmetry.constant
    pot = spec.potential
    rad = _radical_term(e, spec, sq)
    if isinstance(pot, Oscillator):
        if spec.is_spin:
            return (m_ - e) * sq(c - e - m_), branch.sigma_rhs * sq(2.0 * pot.k) * rad, True
        return (m_ + e) * sq(e - m_ - c), branch.sigma_rhs * sq(-2.0 * pot.k) * rad, True
    den = spec.qn.n + 0.5 + branch.sigma_inner * rad
    ok = pole(abs(den) < POLE_TOL * (1.0 + abs(rad)), "vanishing Kratzer denominator")
    t_sq = (pot.d_e * pot.r_e) ** 2
    if spec.is_spin:
        lhs_den = m_ + e - c
        ok = ok & pole(
            abs(lhs_den) < POLE_TOL * (1.0 + abs(e)), "spin residual pole: M + E - C_s = 0"
        )
        return (e - m_) / lhs_den, -branch.sigma_rhs * t_sq / den**2, ok
    lhs_den = m_ - e + c
    ok = ok & pole(
        abs(lhs_den) < POLE_TOL * (1.0 + abs(e)), "pseudospin residual pole: M - E + C_ps = 0"
    )
    return (e + m_) / lhs_den, branch.sigma_rhs * t_sq / den**2, ok


def residual(energy, spec: ProblemSpec, branch: BranchStrategy = CANONICAL):
    """Residual lhs - rhs of the spec's spectral condition; 0 at a root.

    Raises SpectralPoleError at a pole of the condition.
    """
    lhs, rhs, _ = _condition(complex(energy), spec, branch, branch_sqrt, _raise_at_pole)
    return lhs - rhs


def residual_drsk(energy, spec: ProblemSpec, branch: BranchStrategy = CANONICAL):
    """Residual of the ring-shaped Kratzer spectral condition; 0 at a root."""
    if not isinstance(spec.potential, Kratzer):
        raise TypeError("spec does not carry a Kratzer potential")
    return residual(energy, spec, branch)


def residual_drso(energy, spec: ProblemSpec, branch: BranchStrategy = CANONICAL):
    """Residual of the ring-shaped oscillator spectral condition."""
    if not isinstance(spec.potential, Oscillator):
        raise TypeError("spec does not carry an Oscillator potential")
    return residual(energy, spec, branch)


def _residual_scaled(energy, spec, branch):
    """(residual, scale) with scale = 1 + |lhs| + |rhs| for tolerance tests."""
    lhs, rhs, _ = _condition(complex(energy), spec, branch, branch_sqrt, _raise_at_pole)
    return lhs - rhs, 1.0 + abs(lhs) + abs(rhs)


def squared_polynomial_drso(spec: ProblemSpec):
    """Monic cubic from squaring the oscillator condition (a = b = 0 only).

    Pseudospin: (M+E)^2 (E-M-C_ps) + 2 k d^2 = 0
    Spin:       (M-E)^2 (C_s-E-M) - 2 k d^2 = 0
    with d = 1/2 + |m| + 2 n' + 2 + 2 n.  Coefficients are returned highest
    power first.
    """
    if not isinstance(spec.potential, Oscillator):
        raise TypeError("spec does not carry an Oscillator potential")
    if spec.ring.a != 0 or spec.ring.b != 0:
        raise ValueError("squared form is polynomial only for a = b = 0")
    m_, c, k = spec.mass, spec.symmetry.constant, spec.potential.k
    d = 0.5 + abs(spec.qn.m) + 2 * spec.qn.n_prime + 2 + 2 * spec.qn.n
    if spec.is_spin:
        poly = np.polysub(
            np.polymul(np.polymul([-1.0, m_], [-1.0, m_]), [-1.0, c - m_]),
            [2.0 * k * d * d],
        )
    else:
        poly = np.polyadd(
            np.polymul(np.polymul([1.0, m_], [1.0, m_]), [1.0, -m_ - c]),
            [2.0 * k * d * d],
        )
    return poly / poly[0]


def squared_polynomial_drsk(spec: ProblemSpec, sigma_rhs: int = 1):
    """Monic quartic from rationalizing the Kratzer condition (a = b = 0).

    Isolating the big radical and squaring once turns the condition for one
    sigma_rhs sign into a quartic; its real roots are the union of the
    sigma_inner = +1 and -1 branch roots plus squaring artifacts, and its
    complex pairs generate the tables' class-C companions.
    """
    if not isinstance(spec.potential, Kratzer):
        raise TypeError("spec does not carry a Kratzer potential")
    if spec.ring.a != 0 or spec.ring.b != 0:
        raise ValueError("squared form is polynomial only for a = b = 0")
    m_, c0 = spec.mass, spec.symmetry.constant
    t = spec.potential.d_e * spec.potential.r_e**2
    t_sq = (spec.potential.d_e * spec.potential.r_e) ** 2
    nu = spec.qn.n + 0.5
    cc = 0.5 + abs(spec.qn.m) + 2 * spec.qn.n_prime + 1
    q = nu * nu + cc * cc
    if spec.is_spin:
        bracket = np.polyadd(
            np.polymul([1.0, -m_], [t, q + t * (m_ - c0)]),
            sigma_rhs * t_sq * np.array([1.0, m_ - c0]),
        )
        rad = np.polymul(np.polymul([1.0, -m_], [1.0, -m_]), [t, cc * cc + t * (m_ - c0)])
    else:
        bracket = np.polysub(
            np.polymul([1.0, m_], [t, q - t * (m_ + c0)]),
            sigma_rhs * t_sq * np.array([-1.0, m_ + c0]),
        )
        rad = np.polymul(np.polymul([1.0, m_], [1.0, m_]), [t, cc * cc - t * (m_ + c0)])
    poly = np.polysub(np.polymul(bracket, bracket), 4.0 * nu * nu * rad)
    return poly / poly[0]


def _squared(e, spec: ProblemSpec, sigma_rhs, sqrt):
    """The squared condition at energy e with square root sqrt(z).

    e is a complex with `cmath.sqrt` (`squared_form`) or a complex array
    with `np.sqrt` (the batched complex search).
    """
    m_, c = spec.mass, spec.symmetry.constant
    pot = spec.potential
    rad = _radical_term(e, spec, sqrt)
    if isinstance(pot, Oscillator):
        if spec.is_spin:
            return (m_ - e) ** 2 * (c - e - m_) - 2.0 * pot.k * rad * rad
        return (m_ + e) ** 2 * (e - m_ - c) + 2.0 * pot.k * rad * rad
    t_sq = (pot.d_e * pot.r_e) ** 2
    nu = spec.qn.n + 0.5
    if spec.is_spin:
        return (e - m_) * (nu + rad) ** 2 + sigma_rhs * t_sq * (e + m_ - c)
    return (e + m_) * (nu + rad) ** 2 - sigma_rhs * t_sq * (m_ - e + c)


def squared_form(energy, spec: ProblemSpec, sigma_rhs: int = 1):
    """The squared condition as an analytic function of complex energy.

    For the oscillator the sigma_rhs sign cancels on squaring; for the
    Kratzer it survives through the cross term and selects which branch
    family the zeros belong to.
    """
    return _squared(complex(energy), spec, sigma_rhs, cmath.sqrt)


def _secant_complex(f, z0, z1, maxit=100, tol=1e-13):
    f0, f1 = f(z0), f(z1)
    for _ in range(maxit):
        if f1 == f0:
            return None
        z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
        if not (np.isfinite(z2.real) and np.isfinite(z2.imag)):
            return None
        z0, f0, z1, f1 = z1, f1, z2, f(z2)
        if abs(z1 - z0) < tol * (1.0 + abs(z1)):
            return z1
    return None


def _degree(spec: ProblemSpec):
    """Degree of the squared form in E: 3 for the oscillator, 4 for the Kratzer."""
    return 3 if isinstance(spec.potential, Oscillator) else 4


def _complex_multistart(spec: ProblemSpec, x, imag_starts, sigma_rhs=1):
    """Off-axis zeros of the squared form reached by secant from above x.

    One secant run per imaginary offset im, started from the pair
    (x + i im, x (1 + 1e-4) + 1e-4 + 1.01 i im).  A zero is kept when it is
    off the real axis and the squared form vanishes there to
    1e-8 (1 + |z|)^degree, the degree of the squared form (3 for the
    oscillator, 4 for the Kratzer); kept zeros are reflected into the upper
    half-plane.
    """
    degree = _degree(spec)
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
    (same starts, stopping rules and acceptance test) and drops out of the
    live set when it converges or fails.  numpy's complex multiply, divide
    and abs can differ from CPython's in the last bit, so a lane only locates
    its zero; the reported value comes from the scalar run.
    """
    x = np.repeat(np.asarray(xs, dtype=float), len(imag_starts))
    im = np.tile(np.asarray(imag_starts, dtype=float), len(xs))
    z0 = np.empty(x.size, dtype=complex)
    z0.real, z0.imag = x, im
    z1 = np.empty(x.size, dtype=complex)
    z1.real, z1.imag = x * (1 + 1e-4) + 1e-4, im * 1.01
    f = lambda z: _squared(z, spec, 1, np.sqrt)
    found = np.full(x.size, np.nan, dtype=complex)
    live = np.arange(x.size)
    with np.errstate(all="ignore"):
        f0, f1 = f(z0), f(z1)
        for _ in range(100):  # the iteration cap and step tolerance of `_secant_complex`
            z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
            keep = (f1 != f0) & np.isfinite(z2.real) & np.isfinite(z2.imag)
            live, z0, f0, z1 = live[keep], z1[keep], f1[keep], z2[keep]
            f1 = f(z1)
            done = np.abs(z1 - z0) < 1e-13 * (1.0 + np.abs(z1))
            found[live[done]] = z1[done]
            keep = ~done
            live, z0, f0, z1, f1 = live[keep], z0[keep], f0[keep], z1[keep], f1[keep]
            if not live.size:
                break
        ok = np.abs(found.imag) > 1e-8
        ok &= np.abs(f(found)) < 1e-8 * (1 + np.abs(found)) ** _degree(spec)
    return [complex(z.real, abs(z.imag)) if hit else None for z, hit in zip(found, ok)]


def complex_zeros_drso(spec: ProblemSpec, interval, imag_starts=(0.5, 2.0, 6.0), re_step=1.0):
    """Complex zeros of the squared oscillator form inside the Re-interval.

    Starts at every re_step along the interval, each with every imaginary
    offset.  One numpy batch (`_multistart_batch`) runs all starts; the
    accepted lanes are walked in (re, im) order and, for each zero not yet
    reported, the scalar `_complex_multistart` is rerun from that lane and
    gives the reported value.  A lane whose scalar rerun fails leaves its
    zero to the next lane that lands on it.  The result equals running the
    scalar multistart from every start, at a fraction of the evaluations.
    """
    lo, hi = interval
    xs = np.arange(lo, hi + re_step / 2, re_step)
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
        try:
            res, scale = _residual_scaled(z, spec, br)
        except SpectralPoleError:
            continue
        if (tol is None or abs(res) < tol * scale) and (best is None or abs(res) < best[1]):
            best = (br, abs(res))
    return best


def _class_for_branch(branch: BranchStrategy):
    if branch == CANONICAL:
        return RootClass.A
    if branch.sigma_rhs == -1 and branch.sqrt_mode == SQRT_PRINCIPAL:
        return RootClass.B
    return RootClass.D


def _array_sqrt(z, mode):
    z = np.asarray(z, dtype=complex)
    out = np.sqrt(z)
    if mode == SQRT_MODULUS:
        on_axis = np.abs(z.imag) == 0.0
        out = np.where(on_axis, np.sqrt(np.abs(z.real)).astype(complex), out)
    return out


def _residual_array(spec, es, branch):
    """Residual over an energy array; (values, valid mask). Poles masked."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs, rhs, ok = _condition(
            np.asarray(es, dtype=complex), spec, branch, _array_sqrt, _mask_pole
        )
        vals = lhs - rhs
    return vals, ok & np.isfinite(vals.real) & np.isfinite(vals.imag)


#: Grid points per block of the real-axis scan; blocks overlap by one point.
#: Small enough that the (branches x points) temporaries stay in cache and
#: are reused instead of freshly allocated.
SCAN_BLOCK = 8192


@dataclass(frozen=True)
class _BranchStack:
    """Strategies of one sqrt mode, stacked for `_condition` to broadcast over.

    The signs are (B, 1) columns, so the radicals and the lhs are evaluated
    once per energy and every term carrying a sign becomes a (B, N) array.
    """

    sigma_rhs: np.ndarray
    sigma_inner: np.ndarray
    sqrt_mode: str

    @classmethod
    def of(cls, branches):
        col = lambda name: np.array([[getattr(b, name)] for b in branches])
        return cls(col("sigma_rhs"), col("sigma_inner"), branches[0].sqrt_mode)


def _scan_branches(spec, branches, interval, panels_per_unit):
    """Real roots of each branch restriction, one root list per branch, in order.

    One sign-change scan per sqrt mode covers all its branches at once, in
    blocks of SCAN_BLOCK grid points.  On the real axis the residual of a
    branch restriction is real wherever all radicals are real, but the
    oscillator conditions turn purely imaginary below the symmetry
    threshold; zeros are therefore bracketed on whichever component
    dominates while the other stays negligible, and polished by brentq on
    the scalar residual: per branch, the real-component brackets first,
    then the imaginary ones, each in ascending order.
    """
    lo, hi = interval
    n = max(16, int(round((hi - lo) * panels_per_unit)))
    es = np.linspace(lo, hi, n + 1)
    comps = ("real", "imag")
    brackets = [{comp: [] for comp in comps} for _ in branches]
    for mode in dict.fromkeys(b.sqrt_mode for b in branches):
        rows = [i for i, b in enumerate(branches) if b.sqrt_mode == mode]
        stack = _BranchStack.of([branches[i] for i in rows])
        for start in range(0, n, SCAN_BLOCK - 1):
            vals, ok = _residual_array(spec, es[start : start + SCAN_BLOCK], stack)
            ok &= np.abs(vals) < 1e8  # never bisect across a pole
            size = {"real": np.abs(vals.real), "imag": np.abs(vals.imag)}
            for comp, other in zip(comps, comps[::-1]):
                good = ok & (size[other] < 1e-9 * (1.0 + size[comp]))
                sign = np.sign(getattr(vals, comp))
                change = good[:, :-1] & good[:, 1:] & (sign[:, :-1] != sign[:, 1:])
                for row, i in zip(*np.nonzero(change)):
                    brackets[rows[row]][comp].append(start + i)
    roots = []
    for br, found in zip(branches, brackets):
        roots.append([])
        for comp in comps:
            fn = lambda x: getattr(residual(x, spec, br), comp)
            for i in found[comp]:
                try:
                    roots[-1].append(brentq(fn, es[i], es[i + 1], xtol=1e-14))
                except (ValueError, SpectralPoleError):
                    continue
    return roots


def _polynomial_roots(spec, paper_compat):
    """Roots of the exact squared-polynomial paths (a = b = 0 only)."""
    out = []
    search = _search_branches(spec)
    if isinstance(spec.potential, Oscillator):
        polys = [(None, squared_polynomial_drso(spec))]
    else:
        polys = [(s, squared_polynomial_drsk(spec, s)) for s in (1, -1)]
    for srhs, poly in polys:
        for z in np.roots(poly):
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
                f = lambda w: squared_form(w, spec, 1 if srhs is None else srhs)
                zz = _secant_complex(f, complex(z), complex(z) * (1 + 1e-8) + 1e-8j)
                zz = complex(z) if zz is None else complex(zz.real, abs(zz.imag))
                best = _best_branch(spec, zz, search)
                if best is not None:
                    out.append(ClassifiedRoot(zz, best[0], best[1], RootClass.C))
    return out


def _dedupe(roots, tol=1e-8):
    roots = sorted(roots, key=lambda r: (r.energy.real, abs(r.energy.imag), r.residual_norm))
    kept = []
    for r in roots:
        dup = None
        for i, s in enumerate(kept):
            if (
                abs(r.energy.real - s.energy.real) < tol
                and abs(abs(r.energy.imag) - abs(s.energy.imag)) < tol
            ):
                dup = i
                break
        if dup is None:
            kept.append(r)
        elif r.residual_norm < kept[dup].residual_norm:
            kept[dup] = r
    return kept


def find_roots(
    spec: ProblemSpec,
    interval=None,
    *,
    tolerance=1e-10,
    branches=None,
    mode="strict",
    panels_per_unit=2000,
    max_roots=None,
):
    """Classified spectrum points of the spec inside a real search interval.

    strict mode keeps only class-A roots (canonical branch, genuine);
    paper-compat additionally reports sigma_rhs = -1 roots and the real
    parts of complex pairs of the squared forms, reproducing the published
    tables.  Real roots come from one blocked sign-change scan over all
    requested branches of a sqrt mode (`_scan_branches`) at panels_per_unit
    grid panels per unit energy, plus the exact polynomial paths when
    a = b = 0; complex pairs of the ring-dressed oscillator come from
    `complex_zeros_drso`, batch-located and finished by the scalar secant.
    Non-convergent starts of the complex search are dropped silently; an
    empty result is an ordinary outcome.

    Raises ValueError for an unknown mode, an interval that is not finite
    or has lo >= hi, and panels_per_unit <= 0.
    """
    if mode not in ("strict", "paper-compat"):
        raise ValueError("mode must be 'strict' or 'paper-compat'")
    if interval is None:
        m_ = abs(spec.mass)
        interval = (-m_ - 20.0, m_ + 20.0)
    lo, hi = interval
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, got {interval!r}")
    if not panels_per_unit > 0:
        raise ValueError(f"panels_per_unit must be positive, got {panels_per_unit!r}")
    paper_compat = mode == "paper-compat"
    explicit = branches is not None
    search = _search_branches(spec)
    branches = list(branches) if explicit else search

    found = []
    central = spec.ring.a == 0 and spec.ring.b == 0
    if central:
        found.extend(_polynomial_roots(spec, paper_compat))
    # real-line scan over the requested branches (everything the polynomial
    # path already found will be merged away by deduplication)
    for br, roots in zip(branches, _scan_branches(spec, branches, interval, panels_per_unit)):
        for e in roots:
            hit = _best_branch(spec, e, [br], tol=1e-6)
            if hit is None:
                continue
            found.append(ClassifiedRoot(complex(e), br, hit[1], _class_for_branch(br)))
    if paper_compat and isinstance(spec.potential, Oscillator) and not central:
        for z in complex_zeros_drso(spec, interval):
            best = _best_branch(spec, z, search)
            if best is not None:
                found.append(ClassifiedRoot(z, best[0], best[1], RootClass.C))

    found = [
        r
        for r in found
        if lo - 1e-9 <= r.energy.real <= hi + 1e-9
        and r.residual_norm <= max(tolerance, 100 * np.finfo(float).eps)
    ]
    found = _dedupe(found)
    if not paper_compat:
        found = [r for r in found if r.root_class is RootClass.A]
    elif not explicit:
        # roots living only on inner-flipped or modulus branches are outside
        # the published tables' taxonomy; keep them only on explicit request
        found = [r for r in found if r.root_class is not RootClass.D]
    found.sort(key=lambda r: (r.energy.real, r.energy.imag))
    if max_roots is not None:
        found = found[:max_roots]
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
    """
    qn = spec.qn
    if isinstance(spec.symmetry, Pseudospin):
        sym = Spin(-spec.symmetry.constant)
        kappa = None if qn.kappa is None else qn.kappa - 1
    else:
        sym = Pseudospin(-spec.symmetry.constant)
        kappa = None if qn.kappa is None else qn.kappa + 1
    kappa = None if kappa == 0 else kappa
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
    diagnostics: dict | None = None

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
    note: str
    entries: list = field(default_factory=list)

    @property
    def summary(self):
        counts = {c.value: 0 for c in RootClass}
        for e in self.entries:
            counts[e.root_class.value] += 1
        return counts

    def to_json(self):
        return {
            "table": self.table_id,
            "note": self.note,
            "summary": self.summary,
            "entries": [e.to_json() for e in self.entries],
        }

    def to_text(self):
        lines = [f"table {self.table_id} audit: {self.note}"]
        for e in self.entries:
            dev = "-" if e.deviation is None else f"{e.deviation:.3e}"
            lines.append(
                f"  ({e.n},{e.n_prime},{e.m}) a={e.a:g} b={e.b:g} "
                f"value={e.value:.10g} class={e.root_class.value} dev={dev}"
            )
        s = self.summary
        lines.append(
            "  summary: "
            + " ".join(f"{c}={s[c]}" for c in ("A", "B", "C", "D"))
        )
        return "\n".join(lines)


def _lhs_pole(spec):
    if spec.is_spin:
        return spec.symmetry.constant - spec.mass
    return spec.mass + spec.symmetry.constant


#: Evaluations per endpoint of the polish's halving ladder, its first point included.
LADDER_POINTS = 60


def _ladder_candidates(spec, branch, comp, value, starts):
    """Points of each start's halving ladder that the scalar test must decide.

    The ladder of a start e0 is e_j = value + 0.5 (e_{j-1} - value) for
    j = 1 .. LADDER_POINTS - 1, ending before the first point within
    1e-15 (1 + |value|) of value: the points the scalar ladder tests after
    e0, built with the same float recurrence.  All ladders are evaluated in
    one `_residual_array` call.  A point is dropped only where the array
    clearly rejects it: finite, not a pole, and the component other than
    `comp` above the usable threshold 1e-9 (1 + |main|) by more than 1e-6 of
    the threshold.
    Anything else (array-usable, near the threshold, non-finite or masked
    as a pole) is kept for the scalar test, because numpy's complex sqrt,
    multiply and divide can differ from CPython's in the last bit.  Returns
    one list of floats per start, in ladder order.
    """
    stop = 1e-15 * (1.0 + abs(value))
    e = np.asarray(starts, dtype=float)
    pts = np.empty((e.size, LADDER_POINTS - 1))
    for j in range(LADDER_POINTS - 1):
        e = value + 0.5 * (e - value)
        pts[:, j] = e
    live = np.logical_and.accumulate(np.abs(pts - value) >= stop, axis=1)
    vals, ok = _residual_array(spec, pts[live], branch)
    main = np.abs(getattr(vals, comp))
    other = np.abs(vals.imag if comp == "real" else vals.real)
    keep = np.zeros(pts.shape, dtype=bool)
    keep[live] = ~ok | (other <= 1e-9 * (1.0 + main) * (1.0 + 1e-6))
    return [row[k].tolist() for row, k in zip(pts, keep)]


def _polish_branch_root(spec, branch, value, span=2e-3, grow=8):
    """Real root of a branch residual near `value`, by bracket expansion.

    Bisects whichever residual component (real or imaginary) dominates near
    the value; the bracket is clipped at the condition's first-order pole
    and endpoints landing outside the component's validity region (complex
    radicals, poles) are shrunk back toward the value along a halving
    ladder.  Each endpoint's first point is tested by the scalar residual;
    the first time one fails, the ladders of every remaining endpoint are
    built and evaluated as one array (`_ladder_candidates`).  The batch only
    locates: each endpoint is the first of its kept ladder points that the
    scalar test accepts, with the value and sign that test computed, so the
    bracket, and brentq's root, are those of the plain scalar ladder.
    """
    pole = _lhs_pole(spec)
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
        if not (np.isfinite(r.real) and np.isfinite(r.imag)):
            return None
        main = getattr(r, comp)
        other = r.imag if comp == "real" else r.real
        if abs(other) > 1e-9 * (1.0 + abs(main)):
            return None
        return main

    ends = []  # lo, hi of each grow step
    width = span
    for _ in range(grow):
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
            found = _ladder_candidates(spec, branch, comp, value, ends[i:])
            ladders.update(zip(range(i, len(ends)), found))
        for e in ladders[i]:
            val = usable(e)
            if val is not None:
                return e, val
        return None, None

    for step in range(grow):
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


def classify_value(spec: ProblemSpec, value: float, match_tol=1e-4):
    """Audit one published number against every branch and squared form."""
    search = _search_branches(spec)
    candidates = []
    for br in search:
        root = _polish_branch_root(spec, br, value)
        if root is None or abs(root - value) > match_tol:
            continue
        hit = _best_branch(spec, root, [br], tol=1e-8)
        if hit is not None:
            candidates.append((_class_for_branch(br), abs(root - value), br.label(), hit[1]))
    central = spec.ring.a == 0 and spec.ring.b == 0
    pair_zeros = []
    if central:
        # the exact polynomial paths catch real roots the bracketing polish
        # cannot reach (radical branch points, purely imaginary residuals)
        for r in _polynomial_roots(spec, paper_compat=False):
            if abs(r.energy.real - value) <= match_tol:
                candidates.append(
                    (r.root_class, abs(r.energy.real - value), r.branch.label(), r.residual_norm)
                )
        if isinstance(spec.potential, Oscillator):
            polys = [squared_polynomial_drso(spec)]
        else:
            polys = [squared_polynomial_drsk(spec, s) for s in (1, -1)]
        for poly in polys:
            pair_zeros.extend(z for z in np.roots(poly) if z.imag > 1e-7)
    elif isinstance(spec.potential, Oscillator):
        pair_zeros = _complex_multistart(spec, value, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
    for z in pair_zeros:
        dev = abs(z.real - value)
        best = _best_branch(spec, z, search) if dev <= match_tol else None
        if best is not None:
            candidates.append((RootClass.C, dev, best[0].label(), best[1]))
    if candidates:
        order = {RootClass.A: 0, RootClass.B: 1, RootClass.C: 2, RootClass.D: 3}
        candidates.sort(key=lambda c: (order[c[0]], c[1]))
        klass, dev, br, res = candidates[0]
        return klass, dev, br, res, None
    # class D: report how close the search came, on all eight strategies
    diag = {"branch_residuals": {}, "nearest_root": None, "nearest_pair_re": None}
    nearest = None
    for br in all_branches():
        try:
            r, scale = _residual_scaled(value, spec, br)
            diag["branch_residuals"][br.label()] = abs(r)
        except SpectralPoleError:
            diag["branch_residuals"][br.label()] = None
    for br in search:
        root = _polish_branch_root(spec, br, value, span=0.05)
        if root is not None and (nearest is None or abs(root - value) < abs(nearest - value)):
            nearest = root
    diag["nearest_root"] = nearest
    near_pairs = []
    if isinstance(spec.potential, Kratzer) and not central:
        # informational only: the squared Kratzer form has no polynomial
        # representation with ring terms and is not part of the search space
        for srhs in (1, -1):
            near_pairs.extend(_complex_multistart(spec, value, (0.5, 1.0, 2.0, 4.0), srhs))
    if pair_zeros:
        near_pairs.extend(pair_zeros)
    if near_pairs:
        zbest = min(near_pairs, key=lambda z: abs(z.real - value))
        diag["nearest_pair_re"] = zbest.real
    return RootClass.D, None, None, None, diag


def audit_table(table_id: int, published=None, tolerance=1e-4, params=None) -> AuditReport:
    """Classify every published value of one table; never fails on class D."""
    if table_id not in TABLE_KINDS:
        raise ValueError(f"unknown table id {table_id}")
    rows = published if published is not None else load_table_data(table_id)
    report = AuditReport(
        table_id=table_id,
        note=(
            "second table column (printed n-tilde) interpreted as the polar "
            "quantum number n_prime"
        ),
    )
    for n, n_prime, m, a, b, values in rows:
        spec = table_spec(table_id, n, n_prime, m, a, b, params)
        for v in values:
            klass, dev, br, res, diag = classify_value(spec, v, tolerance)
            report.entries.append(
                AuditEntry(n, n_prime, m, a, b, v, klass, dev, br, res, diag)
            )
    return report
