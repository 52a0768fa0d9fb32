"""Independent oracles for the separated equations.

These never touch the closed-form spectra, except that nonrel_energy_fd
takes the closed-form ell_eff (nonrel.coefficients_nr), so it checks the
radial half only.  Each solver returns one level.
The radial solver is a Laguerre Galerkin method on the half-line, with no
radial domain (fd_radial_eigs; the Laguerre-mesh family of Baye, "The
Lagrange-mesh method", Phys. Rep. 565 (2015) 1): its basis starts with the
operator's own Frobenius exponent at r = 0, every matrix element is exact
Gauss-Laguerre quadrature, and the level is checked against the one from
half as many functions.  The angular solver diagonalizes the theta
equation's finite-difference (FD) form.  A self-consistent solve couples
the two through the energy dependence of gamma: it brackets a zero of
F(E) = lambda_n(gamma(E)) - b(E), the radial level minus the radial
equation's constant b(E), skipping brackets that hold a zero of b (the
continuum edge), and closes it with Brent's method.  It validates
relativistic class-A roots without evaluating any spectral condition.

Scope: the sweep's radial operator, -u'' + [(ell_eff^2 - 1/4)/r^2
+ gamma V(r)] u = b(E) u, is the equation the closed forms solve in the spin
Kratzer sector only, so self_consistent_energy refuses any other spec with
OracleError before it sweeps.

The angular equation is singular at both ends (limit-circle at theta -> 0
whenever gamma b + m^2 < 1/4, always at the -1/(4 sin^2) term), where a
naive second-order scheme for the printed H(theta) operator stalls at
percent-level errors.  We therefore remove the sin^(1/2) factor -- an exact
transformation that leaves every eigenvalue unchanged -- and discretize the
resulting flux form (sin(theta) P')' on midpoint cells of (0, pi/2) with a
natural boundary at 0 and a Dirichlet wall at pi/2; the wall selects exactly
the solution family of the quantization rule (the printed family always
vanishes at pi/2).  The wall sits on the last cell's outer face: the ghost
value -P_last mirrors the last centre through it, so the level converges at
second order even where P has a nonzero slope at pi/2 (a = 0).  The angular
level then takes two Richardson steps over ANGULAR_CELLS, 2 ANGULAR_CELLS
and 4 ANGULAR_CELLS cells (spacings h, h/2 and h/4; _richardson).

Each angular FD level comes from LAPACK's Sturm-sequence bisection (stebz;
Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386).  The coarsest grid
of a call is an index solve, which bisects the whole Gershgorin interval.
Each finer grid solves by value on a window of +-_WINDOW (1 + |lambda|)
around the coarser grid's level, certified first by one Sturm count: the
window is kept only when exactly `index` eigenvalues lie at or below its
lower end and it holds a level; otherwise the index solve runs (see
_eigenvalue).  The angular matrix's cell geometry depends only on the cell
count and is built once per count (_angular_grid).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

try:
    from scipy.linalg import eigh_tridiagonal
    from scipy.special import roots_genlaguerre
except ImportError as exc:  # scipy is an optional dependency of the oracle only
    raise ImportError(
        "drsbound.oracle needs scipy; install it with: pip install drsbound[validate]"
    ) from exc

from .brent import brentq
from .model import (
    Kratzer,
    ProblemSpec,
    RingParams,
    gamma_of,
    radial_equation_beta_sq,
)
from .nonrel import coefficients_nr


class OracleError(RuntimeError):
    pass


class DivergenceError(OracleError):
    """A radial level or a self-consistent solve failed to settle."""


#: Half-width of the value window around a level estimate, relative to 1 + |estimate|.
_WINDOW = 1e-3


def _count_below(d, e, x):
    """Number of eigenvalues of the tridiagonal (d, e) at or below x (Sturm count).

    stebz on the value range (bottom, x] with an infinite abstol stops at the
    endpoint counts; bottom lies below the Gershgorin lower bound.
    """
    radius = np.zeros(len(d))
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lower = float(np.min(d - radius))
    bottom = min(lower, x) - (1.0 + abs(lower))
    return len(
        eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(bottom, x), tol=np.inf)
    )


def _check_index(index):
    """ValueError unless index is an int >= 0."""
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or index < 0:
        raise ValueError(f"index must be an int >= 0, got {index!r}")


def _eigenvalue(d, e, index, near):
    """Eigenvalue `index` (0 the lowest) of the symmetric tridiagonal (d, e).

    With `near` None this is a stebz index solve.  An estimate `near` is
    widened by _WINDOW (1 + |near|) to (lo, hi], and the value solve on it is
    kept only when the Sturm count at or below lo equals `index` and the
    window holds a value.  Any other case falls back to the index solve.
    """
    if near is not None:
        lo = near - _WINDOW * (1.0 + abs(near))
        hi = near + _WINDOW * (1.0 + abs(near))
        if _count_below(d, e, lo) == index:
            window = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi))
            if len(window):
                return window[0]
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(index, index))[0]


def _richardson(l1, l2, l3):
    """Two Richardson steps over second-order levels on spacings h, h/2 and h/4.

    R1 = (4 L2 - L1) / 3 and R2 = (4 L3 - L2) / 3 cancel the h^2 term, and
    (16 R2 - R1) / 15, returned, the h^4 term.
    """
    r1 = (4.0 * l2 - l1) / 3.0
    r2 = (4.0 * l3 - l2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def _galerkin_matrix(v_eff, s, power, h, size):
    """Matrix of -d^2/dr^2 + v_eff(r) on `size` Laguerre functions at scale h.

    With r = h x^(1/power) the basis is x^(s/power) e^(-x/2) L_k^(alpha)(x),
    k < size, alpha = (2 s + 1) / power - 1, orthonormal in r up to the factor
    h / power, so the mass matrix is the identity.  In weak form the kinetic
    term is (power / h)^2 P_j P_k and the potential term x^(2/power) v_eff
    L_j L_k, each against the weight x^beta e^(-x), beta = alpha - 2/power,
    where P_k = (s/power - x/2) L_k + x L_k'.  Where x^(2/power) v_eff is a
    polynomial of degree at most 2, both are polynomials of degree at most
    2 size, so size + 2 Gauss-Laguerre nodes of that weight integrate them
    exactly.  The nodes and weights come from scipy (roots_genlaguerre),
    whose weights are relatively accurate where they are tiny; each
    orthonormal L_k is carried times sqrt(weight) by its three-term
    recurrence, so no factor overflows.
    """
    alpha = (2.0 * s + 1.0) / power - 1.0
    x, w = roots_genlaguerre(size + 2, alpha - 2.0 / power)
    k = np.arange(size)
    root = np.sqrt(k * (k + alpha))
    f = np.empty((size, x.size))
    f[0] = np.sqrt(w) * math.exp(-0.5 * math.lgamma(alpha + 1.0))
    f[1] = (alpha + 1.0 - x) * f[0] / root[1]
    for j in range(1, size - 1):
        f[j + 1] = ((2 * j + 1 + alpha - x) * f[j] - root[j] * f[j - 1]) / root[j + 1]
    p = (s / power - 0.5 * x + k[:, None]) * f
    p[1:] -= root[1:, None] * f[:-1]
    g = x ** (1.0 / power) * f
    return (power / h) ** 2 * (p @ p.T) + (g * v_eff(h * x ** (1.0 / power))) @ g.T


def fd_radial_eigs(potential, gamma, ell_eff_sq, index, b):
    """Level `index` of -u'' + [(ell_eff^2 - 1/4)/r^2 + gamma V(r)] u = lambda u on r > 0.

    The radial equation in its gamma form, shared by the relativistic sweep
    (gamma = gamma(E), b = b(E)) and the nonrelativistic checks (gamma =
    2 mu, b None; lambda / gamma is the energy).  The name is the one
    perfbench's tracer spans; the solve is Galerkin, not FD, and has no
    radial domain.  The Frobenius exponent s = 1/2 + sqrt(1/4 + c2) comes
    from the operator's own 1/r^2 coefficient c2 (ell_eff^2 - 1/4, plus
    gamma D_e r_e^2 for Kratzer).  Kratzer maps r = h x; its solutions decay
    as e^(-sqrt|lambda| r), so h = 1.3 / (2 sqrt|b|), 1.3 times the scale at
    which the basis decays as the level does.  Where b is None or
    |b| < 1e-3, b is first taken as level `index` of RADIAL_FUNCTIONS
    functions at h = 1.  The oscillator maps r = h x^(1/2); its solutions
    decay as e^(-sqrt(c4) r^2 / 2), c4 = gamma k / 2 its r^2 coefficient,
    so h = 1.3 c4^(-1/4).  The 1.3 keeps the basis off the level's own
    eigenfunction.

    One matrix of 2N functions (_galerkin_matrix) gives the level on N
    functions as its leading block; the 2N-function level is returned once
    the two agree to 1e-10 (1 + |level|).  N starts at RADIAL_FUNCTIONS and
    doubles up to MAX_RADIAL_FUNCTIONS, beyond which DivergenceError is
    raised, as it is for gamma <= 0, where gamma V holds no bound level.
    Raises ValueError unless index is an int >= 0, and OracleError unless
    index < RADIAL_FUNCTIONS.
    """
    _check_index(index)
    if index >= RADIAL_FUNCTIONS:
        raise OracleError(f"level {index} lies beyond the {RADIAL_FUNCTIONS}-function basis")
    if gamma <= 0:
        raise DivergenceError("gamma V holds no bound level at gamma <= 0")
    c2 = ell_eff_sq - 0.25
    if isinstance(potential, Kratzer):
        power = 1
        c2 += gamma * potential.d_e * potential.r_e**2
    else:
        power = 2
    s = 0.5 + math.sqrt(0.25 + c2)

    def v_eff(r):
        return (ell_eff_sq - 0.25) / r**2 + gamma * potential.radial(r)

    if power == 2:
        h = 1.3 * (0.5 * gamma * potential.k) ** -0.25
    else:
        if b is None or abs(b) < 1e-3:
            b = np.linalg.eigvalsh(_galerkin_matrix(v_eff, s, power, 1.0, RADIAL_FUNCTIONS))[index]
        h = 1.3 / (2.0 * math.sqrt(abs(b)))
    size = RADIAL_FUNCTIONS
    while size <= MAX_RADIAL_FUNCTIONS:
        matrix = _galerkin_matrix(v_eff, s, power, h, 2 * size)
        coarse = np.linalg.eigvalsh(matrix[:size, :size])[index]
        level = np.linalg.eigvalsh(matrix)[index]
        if abs(level - coarse) <= 1e-10 * (1.0 + abs(level)):
            return float(level)
        size *= 2
    raise DivergenceError(f"radial level unsettled at {MAX_RADIAL_FUNCTIONS} functions")


@functools.lru_cache(maxsize=3)
def _angular_grid(cells):
    """The parts of the angular FD matrix that depend only on `cells`, read-only.

    On `cells` midpoint cells of (0, pi/2): sin and sin^2 at the centers,
    cos^2 at the centers, the kinetic diagonal and the symmetrized
    off-diagonal.  The last cell's outer flux sees the ghost value -P_last,
    which puts the Dirichlet wall on the face at pi/2, so its kinetic entry
    carries 2 sin at that face.  One fd_angular_eigs call builds three
    grids, which the cache holds; a caller sweeping `cells` evicts the
    oldest.
    """
    h = (math.pi / 2.0) / cells
    centers = (np.arange(cells) + 0.5) * h
    faces = np.arange(cells + 1) * h
    sin_f = np.sin(faces)
    sin_c = np.sin(centers)
    kinetic = (sin_f[:cells] + sin_f[1:]) / h**2
    kinetic[-1] = (sin_f[-2] + 2.0 * sin_f[-1]) / h**2
    off = -sin_f[1:cells] / h**2
    grid = (
        sin_c,
        sin_c**2,
        np.cos(centers) ** 2,
        kinetic,
        off / np.sqrt(sin_c[:-1] * sin_c[1:]),
    )
    for part in grid:
        part.flags.writeable = False
    return grid


def _angular_fd_once(gamma, ring: RingParams, m: int, index: int, cells: int, near=None):
    """Level `index` of the angular FD matrix on `cells` cells (see _eigenvalue).

    Only the potential term q and the diagonal depend on gamma, the ring
    and m; the rest comes from _angular_grid.
    """
    sin_c, sin_c_sq, cos_c_sq, kinetic, e = _angular_grid(cells)
    q = 0.25 + (m * m + gamma * ring.b) / sin_c_sq + gamma * ring.a / cos_c_sq
    diag = kinetic + q * sin_c
    d = diag / sin_c
    return _eigenvalue(d, e, index, near)


def fd_angular_eigs(gamma, ring: RingParams, m: int, index: int):
    """Eigenvalue (ell + 1/2)^2 of the polar equation's level `index`, real sector only.

    The level of the quantization family (bounded at theta = 0, vanishing at
    pi/2) on ANGULAR_CELLS, 2 ANGULAR_CELLS and 4 ANGULAR_CELLS cells
    (spacings h, h/2 and h/4), each second order with the wall on the last
    face, and two Richardson steps cancel the h^2 and h^4 terms
    (_richardson).  The coarsest grid is an index
    solve; the finer two each solve in a Sturm-certified value window
    around the previous grid's level (see _eigenvalue).  Raises ValueError
    unless index is an int >= 0, and OracleError unless index < ANGULAR_CELLS.
    """
    _check_index(index)
    if index >= ANGULAR_CELLS:
        raise OracleError(f"level {index} lies beyond the {ANGULAR_CELLS}-cell angular grid")
    if gamma * ring.a + 0.25 < 0 or gamma * ring.b + m * m < 0:
        raise OracleError("complex angular sector: radicals not real")
    l1 = _angular_fd_once(gamma, ring, m, index, ANGULAR_CELLS)
    l2 = _angular_fd_once(gamma, ring, m, index, 2 * ANGULAR_CELLS, near=l1)
    l3 = _angular_fd_once(gamma, ring, m, index, 4 * ANGULAR_CELLS, near=l2)
    return _richardson(l1, l2, l3)


def _consistency_map(spec: ProblemSpec, e: float) -> float:
    """One sweep: F(E) = lambda_n(gamma(E)) - b(E), zero at a bound root.

    lambda_n is level n of the radial problem at gamma(E) (fd_radial_eigs,
    scaled by b(E)), whose centrifugal term takes the polar equation's
    quantized (ell + 1/2)^2, and b(E) = radial_equation_beta_sq(spec, E);
    spin Kratzer specs only.  gamma(E) of a float E is real: its imaginary
    part is exactly 0.0.
    """
    g = gamma_of(spec, e).real
    n, n_prime = spec.qn.n, spec.qn.n_prime
    try:
        lam_ang = fd_angular_eigs(g, spec.ring, spec.qn.m, n_prime)
    except OracleError as exc:
        raise DivergenceError(str(exc)) from exc
    b = radial_equation_beta_sq(spec, e).real
    return fd_radial_eigs(spec.potential, g, lam_ang, n, b) - b


#: Width at which `self_consistent_energy` stops closing its bracket.
BRACKET_TOL = 1e-9
#: Step and half-width of the outward march for a bracket.
SCAN_STEP, SCAN_SPAN = 0.1, 4.0
#: Laguerre functions of the coarser radial Galerkin level, and its cap
#: (the finer level has twice as many; see fd_radial_eigs).
RADIAL_FUNCTIONS, MAX_RADIAL_FUNCTIONS = 16, 128
#: Cells of the coarsest angular FD grid (the finer two have 2x and 4x as
#: many cells, at spacings h, h/2 and h/4).
ANGULAR_CELLS = 500


def self_consistent_energy(spec: ProblemSpec, initial_energy: float):
    """Energy E at which the radial level at gamma(E) equals b(E).

    Each sweep evaluates F(E) = lambda_n(gamma(E)) - b(E) (see
    _consistency_map): it solves the polar equation at gamma(E) for the
    quantized (ell + 1/2)^2, feeds it into the radial solver, and subtracts
    b(E) = radial_equation_beta_sq(spec, E).  F is continuous and changes
    sign at a bound root, so it is bracketed by marching outward from the
    initial energy in SCAN_STEP steps, alternating sides, up to SCAN_SPAN
    away; a failed sweep leaves its march point out.  A bracket holding a
    zero of b(E) is skipped: F changes sign there too, at the continuum
    edge, where no bound state lies.  Brent's method (`brent.brentq`)
    closes the bracket to BRACKET_TOL, and a sweep that fails inside it
    raises DivergenceError.  No such sweep fails: gamma is linear in E and
    the polar equation's real-sector conditions are linear in gamma, so the
    energies where a sweep completes form an interval, which holds both
    bracket ends.  DivergenceError is the documented outcome whenever no
    bound root exists in reach of the march.  The returned energy must
    satisfy |F(E)| <= 1e-6 (1 + |b(E)|); Brent's method returns a point it
    has swept, so that check solves nothing again.

    Every energy is swept at most once per call, and a call sweeps at most
    2 round(SCAN_SPAN / SCAN_STEP) + 1 + brent.MAXITER = 181 energies: the
    march's ends are the initial energy and the 80 points k SCAN_STEP from
    it, k = 1 .. 40, and brentq raises RuntimeError after MAXITER
    iterations of one sweep each.  Sweeps are kept for one call only; a
    second call solves them again.

    Raises ValueError for a non-finite initial_energy, and OracleError,
    before any sweep, for a spec outside the spin Kratzer sector (see the
    module's scope paragraph), a level n beyond the radial basis
    (n >= RADIAL_FUNCTIONS) or a polar level n' beyond the angular grid
    (n' >= ANGULAR_CELLS).
    """
    e0 = float(initial_energy)
    if not math.isfinite(e0):
        raise ValueError(f"initial_energy must be finite, got {initial_energy!r}")
    if not (spec.is_spin and isinstance(spec.potential, Kratzer)):
        raise OracleError("the self-consistent sweep solves the spin Kratzer sector only")
    if spec.qn.n >= RADIAL_FUNCTIONS:
        raise OracleError(f"level {spec.qn.n} lies beyond the {RADIAL_FUNCTIONS}-function basis")
    if spec.qn.n_prime >= ANGULAR_CELLS:
        raise OracleError(
            f"level {spec.qn.n_prime} lies beyond the {ANGULAR_CELLS}-cell angular grid"
        )
    swept = {}

    def fval(e):
        """F at e, None where the sweep fails; each energy is swept once."""
        if e not in swept:
            try:
                swept[e] = _consistency_map(spec, e)
            except DivergenceError:
                swept[e] = None
        return swept[e]

    # zeros of b(E) = (M - E)(C_s - E - M)
    b_zeros = (spec.mass, spec.symmetry.constant - spec.mass)
    steps = int(round(SCAN_SPAN / SCAN_STEP))
    for i, sign in itertools.product(range(steps), (1, -1)):
        a = e0 + sign * i * SCAN_STEP
        b = e0 + sign * (i + 1) * SCAN_STEP
        lo, hi = (a, b) if a < b else (b, a)
        flo, fhi = fval(lo), fval(hi)
        if flo is None or fhi is None or np.sign(flo) == np.sign(fhi):
            continue
        if not any(lo <= z <= hi for z in b_zeros):
            break
    else:
        raise DivergenceError("no self-consistent bracket near the initial energy")

    def inside(e):
        value = fval(e)
        if value is None:
            raise DivergenceError("a sweep failed inside the bracket")
        return value

    e_star = brentq(inside, lo, hi, xtol=BRACKET_TOL)
    b_star = radial_equation_beta_sq(spec, e_star).real
    if abs(swept[e_star]) > 1e-6 * (1.0 + abs(b_star)):
        raise DivergenceError("bracketed point is not a consistent energy")
    return e_star


def nonrel_energy_fd(params, qn):
    """Energy of level n of the nonrelativistic separated radial problem.

    Solves -u''/(2 mu) + [V(r) + (L^2 - 1/4)/(2 mu r^2)] u = E u (hbar = 1)
    with the ring-quantized L = ell_eff as fd_radial_eigs at gamma = 2 mu,
    whose eigenvalue is gamma E; the independent check for the closed-form
    nonrelativistic spectra.  DivergenceError if the level does not settle.
    """
    gamma = 2.0 * params.mu
    ell_eff = coefficients_nr(params, qn).ell_eff.real
    return fd_radial_eigs(params.potential, gamma, ell_eff**2, qn.n, None) / gamma
