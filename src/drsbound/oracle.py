"""Independent finite-difference oracles for the separated equations.

These never touch the closed-form spectra: the radial solver diagonalizes
the symmetric tridiagonal discretization of -d^2/dr^2 + V_eff(r) with
Dirichlet walls, and the angular solver diagonalizes the theta equation in
its Sturm-Liouville form.  A self-consistent solve couples the two through
the energy dependence of gamma: it brackets a zero of
F(E) = lambda_n(gamma(E)) - b(E), the FD radial eigenvalue minus the radial
equation's constant b(E), skipping brackets that hold a zero of b (the
continuum edge), and closes it with Brent's method.  It validates
relativistic class-A roots without evaluating any spectral condition.

The angular equation is singular at both ends (limit-circle at theta -> 0
whenever gamma b + m^2 < 1/4, always at the -1/(4 sin^2) term), where a
naive second-order scheme for the printed H(theta) operator stalls at
percent-level errors.  We therefore remove the sin^(1/2) factor -- an exact
transformation that leaves every eigenvalue unchanged -- and discretize the
resulting flux form (sin(theta) P')' on midpoint cells of (0, pi/2) with a
natural boundary at 0 and a Dirichlet wall at pi/2; the wall selects exactly
the solution family of the quantization rule (the printed family always
vanishes at pi/2).  Three-grid Aitken extrapolation absorbs the remaining
endpoint-driven convergence order.

Each FD level comes from LAPACK's Sturm-sequence bisection (stebz; Barth,
Martin & Wilkinson, Numer. Math. 9 (1967) 386).  The coarsest grid of a call
is an index solve, which bisects the whole Gershgorin interval.  Each finer
grid solves by value on a window of +-_WINDOW (1 + |lambda|) around the
coarser grid's level, certified first by one Sturm count: the window is kept
only when exactly `first` eigenvalues lie at or below its lower end and it
holds every wanted level; otherwise the index solve runs (see _levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:
    from scipy.linalg import eigh_tridiagonal
except ImportError as exc:  # scipy is an optional dependency of the oracle only
    raise ImportError(
        "drsbound.oracle needs scipy; install it with: pip install drsbound[validate]"
    ) from exc

from .brent import brentq
from .model import (
    Kratzer,
    ProblemSpec,
    RingParams,
    SpecError,
    gamma_of,
    radial_equation_beta_sq,
)


class OracleError(RuntimeError):
    pass


class DivergenceError(OracleError):
    """Self-consistent iteration failed to settle."""


@dataclass(frozen=True)
class FdGrid:
    """Uniform Dirichlet grid: interior nodes only, walls at both ends."""

    r_min: float
    r_max: float
    nodes: int

    def __post_init__(self):
        if not self.r_max > self.r_min:
            raise SpecError("grid endpoints must be strictly ordered")
        if self.nodes < 50:
            raise SpecError("grid too coarse: need at least 50 nodes")

    @property
    def spacing(self):
        return (self.r_max - self.r_min) / (self.nodes + 1)

    def points(self):
        h = self.spacing
        return self.r_min + h * np.arange(1, self.nodes + 1)


def _check_levels(count, first):
    """ValueError unless count and first are ints with 0 <= first < count."""
    for name, value in (("count", count), ("first", first)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    if not 0 <= first < count:
        raise ValueError(f"first must satisfy 0 <= first < count = {count}, got {first!r}")


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


def _levels(d, e, first, count, near=None):
    """Eigenvalues first..count-1 of the symmetric tridiagonal (d, e).

    Without an estimate this is a stebz index solve.  `near` holds estimates
    of the wanted levels in ascending order; each is widened by
    _WINDOW (1 + |near|), and the value solve on (lo, hi], from the lowest
    estimate's lower end to the highest one's upper end, is kept only when
    the Sturm count at or below lo equals `first` and the window holds at
    least count - first values.  Any other case falls back to the index
    solve.
    """
    if near is not None:
        lo = near[0] - _WINDOW * (1.0 + abs(near[0]))
        hi = near[-1] + _WINDOW * (1.0 + abs(near[-1]))
        if _count_below(d, e, lo) == first:
            window = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi))
            if len(window) >= count - first:
                return window[: count - first]
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(first, count - 1))


def _tridiag_eigs(v_values, h, first, count, near=None):
    n = len(v_values)
    diag = 2.0 / h**2 + v_values
    off = np.full(n - 1, -1.0 / h**2)
    return _levels(diag, off, first, count, near)


def fd_radial_eigs(v_eff, grid: FdGrid, count: int, refine=False, first=0):
    """Eigenvalues first..count-1 of -d^2/dr^2 + V_eff with Dirichlet walls.

    Second-order convergent in the spacing, optionally Richardson-refined on
    (h, h/2).  Levels below `first` are not computed.  The n-node grid is an
    index solve; with refine, the (2n+1)-node grid solves in a
    Sturm-certified value window around the n-node levels (see _levels).
    Raises ValueError unless count and first are ints with
    0 <= first < count.
    """
    _check_levels(count, first)
    if grid.nodes < 10 * count:
        raise OracleError("grid too coarse for the requested eigenvalue count")
    r = grid.points()
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.asarray(v_eff(r), dtype=float)
    if not np.all(np.isfinite(v)):
        raise OracleError("potential not finite on the open grid interior")
    lam = _tridiag_eigs(v, grid.spacing, first, count)
    if not refine:
        return lam
    fine = FdGrid(grid.r_min, grid.r_max, 2 * grid.nodes + 1)
    v2 = np.asarray(v_eff(fine.points()), float)
    lam2 = _tridiag_eigs(v2, fine.spacing, first, count, near=lam)
    return (4.0 * lam2 - lam) / 3.0


def radial_level(potential, gamma, ell_eff_sq, index, r_max, nodes):
    """Level `index` of -u'' + [(ell_eff^2 - 1/4)/r^2 + gamma V(r)] u = lambda u.

    The radial equation in its gamma form, shared by the relativistic sweep
    (gamma = gamma(E)) and the nonrelativistic checks (gamma = 2 mu / hbar^2,
    where lambda / gamma is the energy).  Solved on `nodes` interior nodes of
    (0, r_max) with Dirichlet walls and Richardson-refined (fd_radial_eigs).
    """

    def v_eff(r):
        return (ell_eff_sq - 0.25) / r**2 + gamma * potential.radial(r)

    grid = FdGrid(0.0, r_max, nodes)
    return fd_radial_eigs(v_eff, grid, index + 1, refine=True, first=index)[0]


def _angular_fd_once(
    gamma, ring: RingParams, m: int, first: int, count: int, cells: int, near=None
):
    h = (math.pi / 2.0) / cells
    centers = (np.arange(cells) + 0.5) * h
    faces = np.arange(cells + 1) * h
    sin_f = np.sin(faces)
    sin_c = np.sin(centers)
    q = (
        0.25
        + (m * m + gamma * ring.b) / sin_c**2
        + gamma * ring.a / np.cos(centers) ** 2
    )
    diag = (sin_f[:cells] + sin_f[1:]) / h**2 + q * sin_c
    off = -sin_f[1:cells] / h**2
    d = diag / sin_c
    e = off / np.sqrt(sin_c[:-1] * sin_c[1:])
    return _levels(d, e, first, count, near)


def fd_angular_eigs(gamma, ring: RingParams, m: int, count: int, cells=2000, first=0):
    """Eigenvalues (ell + 1/2)^2 of the polar equation, real sector only.

    Returns the levels first..count-1 of the quantization family (bounded at
    theta = 0, vanishing at pi/2), Aitken-extrapolated over three dyadic
    grids.  The coarsest grid is an index solve; the 2x and 4x grids each
    solve in a Sturm-certified value window around the previous grid's
    levels (see _levels).  Raises ValueError unless count and first are ints
    with 0 <= first < count.
    """
    _check_levels(count, first)
    if gamma * ring.a + 0.25 < 0 or gamma * ring.b + m * m < 0:
        raise OracleError("complex angular sector: radicals not real")
    l1 = _angular_fd_once(gamma, ring, m, first, count, cells)
    l2 = _angular_fd_once(gamma, ring, m, first, count, 2 * cells, near=l1)
    l3 = _angular_fd_once(gamma, ring, m, first, count, 4 * cells, near=l2)
    d1, d2 = l2 - l1, l3 - l2
    out = l3.copy()
    mask = np.abs(d2 - d1) > 1e-300
    out[mask] = l3[mask] - d2[mask] ** 2 / (d2[mask] - d1[mask])
    return out


@dataclass
class _RadialDomain:
    """How many doublings of the radial domain one solve's verified sweep took.

    None until a sweep of the solve has run the full doubling test; every
    later sweep of that solve then solves once at r0(E) * 2**doublings.
    """

    doublings: int | None = None


def _consistency_map(
    spec: ProblemSpec, e: float, nodes: int, domain: _RadialDomain | None = None
) -> float:
    """One sweep: F(E) = lambda_n(gamma(E)) - b(E), zero at a bound root.

    lambda_n is level n of the FD radial problem at gamma(E), whose
    centrifugal term takes the polar equation's quantized (ell + 1/2)^2, and
    b(E) = radial_equation_beta_sq(spec, E).  The radial domain starts at
    r0(E), from the decay estimate sqrt(|b(E)|).  Without a `domain`, or with
    one whose doublings are still None, it is doubled until the eigenvalue
    settles to 1e-8; DivergenceError if 4 doublings leave it unsettled, else
    the number of doublings is recorded in `domain`.  With recorded
    doublings the sweep solves once at r0(E) * 2**doublings, unverified.
    """
    g = gamma_of(spec, e)
    if abs(g.imag) > 1e-12:
        raise DivergenceError("gamma left the real axis")
    g = g.real
    n, n_prime = spec.qn.n, spec.qn.n_prime
    try:
        lam_ang = fd_angular_eigs(
            g, spec.ring, spec.qn.m, n_prime + 1, cells=1500, first=n_prime
        )[0]
    except OracleError as exc:
        raise DivergenceError(str(exc)) from exc
    b = radial_equation_beta_sq(spec, e).real
    decay = math.sqrt(abs(b)) if abs(b) > 1e-3 else 1.0
    if isinstance(spec.potential, Kratzer):
        r_max = 25.0 / decay
    else:
        r_max = max(6.0, 3.0 * (abs(g) * spec.potential.k / 8.0) ** -0.25)
    if domain is not None and domain.doublings is not None:
        r_max *= 2.0**domain.doublings
        return radial_level(spec.potential, g, lam_ang, n, r_max, nodes) - b
    prev = radial_level(spec.potential, g, lam_ang, n, r_max, nodes)
    for doublings in range(1, 5):
        r_max *= 2.0
        lam_rad = radial_level(spec.potential, g, lam_ang, n, r_max, nodes)
        if abs(lam_rad - prev) < 1e-8 * (1.0 + abs(lam_rad)):
            break
        prev = lam_rad
    else:
        raise DivergenceError("radial eigenvalue unsettled after 4 domain doublings")
    if domain is not None:
        domain.doublings = doublings
    return lam_rad - b


#: Width at which `self_consistent_energy` stops closing its bracket.
BRACKET_TOL = 1e-9
#: Cap on the consistency sweeps of one `self_consistent_energy` call.
MAX_SWEEPS = 200
#: Step and half-width of the outward march for a bracket.
SCAN_STEP, SCAN_SPAN = 0.1, 4.0
#: Nodes of the radial FD grid in each sweep.
FD_NODES = 3000


def self_consistent_energy(spec: ProblemSpec, initial_energy: float):
    """Energy E at which the FD radial eigenvalue at gamma(E) equals b(E).

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
    bracket ends.
    MAX_SWEEPS caps the total number of sweeps, each solving the radial
    problem on FD_NODES grid nodes; real-sector specs only.  DivergenceError
    is the documented outcome whenever no bound root exists in reach of the
    march.

    The radial domain is verified twice per solve: the first sweep whose
    radial solve completes doubles it until the eigenvalue settles, and
    every later sweep of the march and the bracket reuses that number of
    doublings (see _RadialDomain).  The final check at the returned energy
    runs the full doubling test again and requires
    |F(E)| <= 1e-6 (1 + |b(E)|), so the returned energy always passes on a
    verified domain.

    Raises ValueError for a non-finite initial_energy.
    """
    e0 = float(initial_energy)
    if not math.isfinite(e0):
        raise ValueError(f"initial_energy must be finite, got {initial_energy!r}")
    budget = [MAX_SWEEPS]
    carried = _RadialDomain()

    def sweep(e, domain=carried):
        """F at e, None where the sweep fails."""
        if budget[0] <= 0:
            raise DivergenceError("sweep budget exhausted")
        budget[0] -= 1
        try:
            return _consistency_map(spec, e, FD_NODES, domain)
        except DivergenceError:
            return None

    known = {}

    def fval(e):
        if e not in known:
            known[e] = sweep(e)
        return known[e]

    # zeros of b(E): (M - E)(C_s - E - M) for spin, (M + E)(E - M - C_ps) for pseudospin
    m_, c = spec.mass, spec.symmetry.constant
    b_zeros = (m_, c - m_) if spec.is_spin else (-m_, m_ + c)
    lo_limit, hi_limit = e0 - SCAN_SPAN, e0 + SCAN_SPAN
    bracket = None
    steps = int(round(SCAN_SPAN / SCAN_STEP))
    for i in range(steps):
        for sign in (1, -1):
            a = e0 + sign * i * SCAN_STEP
            b = e0 + sign * (i + 1) * SCAN_STEP
            lo, hi = (a, b) if a < b else (b, a)
            if lo < lo_limit or hi > hi_limit:
                continue
            flo, fhi = fval(lo), fval(hi)
            if flo is None or fhi is None or np.sign(flo) == np.sign(fhi):
                continue
            if not any(lo <= z <= hi for z in b_zeros):
                bracket = (lo, hi)
                break
        if bracket:
            break
    if bracket is None:
        raise DivergenceError("no self-consistent bracket near the initial energy")

    def inside(e):
        value = fval(e)
        if value is None:
            raise DivergenceError("a sweep failed inside the bracket")
        return value

    e_star = brentq(inside, *bracket, xtol=BRACKET_TOL)
    f_star = sweep(e_star, domain=None)
    b_star = radial_equation_beta_sq(spec, e_star).real
    if f_star is None or abs(f_star) > 1e-6 * (1.0 + abs(b_star)):
        raise DivergenceError("bracketed point is not a consistent energy")
    return e_star


#: Nodes of the radial FD grid in the nonrelativistic checks.
NONREL_NODES = 6000


def nonrel_energy_fd(params, qn):
    """FD energy of level n of the nonrelativistic separated radial problem.

    Solves -hbar^2/(2 mu) u'' + [V(r) + hbar^2 (L^2 - 1/4)/(2 mu r^2)] u = E u
    with the ring-quantized L = ell_eff as radial_level at
    gamma = 2 mu / hbar^2, whose eigenvalue is gamma E; the independent check
    for the closed-form nonrelativistic spectra.
    """
    from .nonrel import coefficients_nr

    gamma = 2.0 * params.mu / params.hbar**2
    ell_eff = coefficients_nr(params, qn).ell_eff.real
    if isinstance(params.potential, Kratzer):
        r_max = 6.0 * (qn.n + 1)
    else:
        r_max = 3.0 * math.sqrt(2.0 * qn.n + ell_eff + 10.0)
    return radial_level(params.potential, gamma, ell_eff**2, qn.n, r_max, NONREL_NODES) / gamma
