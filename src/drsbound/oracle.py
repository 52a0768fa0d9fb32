"""Independent finite-difference oracles for the separated equations.

These never touch the closed-form spectra.  Each solver returns one level.
The radial solver diagonalizes the symmetric tridiagonal discretization of
-d^2/dr^2 + V_eff(r) on (0, r_max) with Dirichlet walls on three nested
grids (spacings h, h/2 and h/4) and cancels the h^2 and h^4 error terms by
two Richardson steps, and the angular solver diagonalizes the theta
equation in its Sturm-Liouville form.  Both the relativistic sweep and the
nonrelativistic check double the radial domain until the level settles
(_settled_level).  A self-consistent solve couples the two through the
energy dependence of gamma: it brackets a zero of
F(E) = lambda_n(gamma(E)) - b(E), the FD radial eigenvalue minus the radial
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
level then takes the radial rule's two Richardson steps, over ANGULAR_CELLS,
2 ANGULAR_CELLS and 4 ANGULAR_CELLS cells (spacings h, h/2 and h/4), in the
one routine both solvers share (_richardson).

Each FD level comes from LAPACK's Sturm-sequence bisection (stebz; Barth,
Martin & Wilkinson, Numer. Math. 9 (1967) 386).  The coarsest grid of a call
is an index solve, which bisects the whole Gershgorin interval.  Each finer
grid solves by value on a window of +-_WINDOW (1 + |lambda|) around the
coarser grid's level, certified first by one Sturm count: the window is kept
only when exactly `index` eigenvalues lie at or below its lower end and it
holds a level; otherwise the index solve runs (see _eigenvalue).

No FD arithmetic is repeated where its inputs repeat.  The angular matrix's
cell geometry depends only on the cell count and is built once per count
(_angular_grid).  A self-consistent solve keeps the levels it has solved,
the angular level by gamma and each radial level by (gamma, r_max), for as
long as the solve runs (see _consistency_map).
"""

from __future__ import annotations

import functools
import math

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
    gamma_of,
    radial_equation_beta_sq,
)


class OracleError(RuntimeError):
    pass


class DivergenceError(OracleError):
    """Self-consistent iteration failed to settle."""


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


def _eigenvalue(d, e, index, near):
    """Eigenvalue `index` (0 the lowest) of the symmetric tridiagonal (d, e).

    With `near` None this is a stebz index solve.  An estimate `near` is
    widened by _WINDOW (1 + |near|) to (lo, hi], and the value solve on it is
    kept only when the Sturm count at or below lo equals `index` and the
    window holds a value.  Any other case falls back to the index solve.
    Raises ValueError unless index is an int >= 0.
    """
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or index < 0:
        raise ValueError(f"index must be an int >= 0, got {index!r}")
    if near is not None:
        lo = near - _WINDOW * (1.0 + abs(near))
        hi = near + _WINDOW * (1.0 + abs(near))
        if _count_below(d, e, lo) == index:
            window = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi))
            if len(window):
                return window[0]
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(index, index))[0]


def _grid_level(v_eff, r_max, nodes, index, near=None):
    """Level `index` on `nodes` interior nodes of (0, r_max), Dirichlet walls at both ends.

    OracleError unless V_eff is finite at every node.
    """
    h = r_max / (nodes + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.asarray(v_eff(h * np.arange(1, nodes + 1)), dtype=float)
    if not np.all(np.isfinite(v)):
        raise OracleError("potential not finite on the open grid interior")
    diag = 2.0 / h**2 + v
    off = np.full(nodes - 1, -1.0 / h**2)
    return _eigenvalue(diag, off, index, near)


def _richardson(l1, l2, l3):
    """Two Richardson steps over second-order levels on spacings h, h/2 and h/4.

    R1 = (4 L2 - L1) / 3 and R2 = (4 L3 - L2) / 3 cancel the h^2 term, and
    (16 R2 - R1) / 15, returned, the h^4 term.
    """
    r1 = (4.0 * l2 - l1) / 3.0
    r2 = (4.0 * l3 - l2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def fd_radial_eigs(v_eff, r_max, nodes, index):
    """Level `index` of -d^2/dr^2 + V_eff on (0, r_max) with Dirichlet walls.

    The second-order FD level on `nodes`, 2 nodes + 1 and 4 nodes + 3
    interior nodes (spacings h, h/2 and h/4) gives L1, L2 and L3, and two
    Richardson steps cancel the h^2 and h^4 terms (_richardson).  The
    `nodes` grid is an index solve; each finer grid solves in a
    Sturm-certified value window around the coarser grid's level (see
    _eigenvalue).  Raises ValueError unless index is an int >= 0, and
    OracleError when nodes < 10 (index + 1) or V_eff is not finite at a node
    of any grid.
    """
    if nodes < 10 * (index + 1):
        raise OracleError("grid too coarse for the requested level")
    l1 = _grid_level(v_eff, r_max, nodes, index)
    l2 = _grid_level(v_eff, r_max, 2 * nodes + 1, index, near=l1)
    l3 = _grid_level(v_eff, r_max, 4 * nodes + 3, index, near=l2)
    return _richardson(l1, l2, l3)


def radial_level(potential, gamma, ell_eff_sq, index, r_max):
    """Level `index` of -u'' + [(ell_eff^2 - 1/4)/r^2 + gamma V(r)] u = lambda u.

    The radial equation in its gamma form, shared by the relativistic sweep
    (gamma = gamma(E)) and the nonrelativistic checks (gamma = 2 mu,
    where lambda / gamma is the energy).  Solved on (0, r_max) by
    fd_radial_eigs from a coarsest grid of FD_NODES interior nodes.
    """

    def v_eff(r):
        return (ell_eff_sq - 0.25) / r**2 + gamma * potential.radial(r)

    return fd_radial_eigs(v_eff, r_max, FD_NODES, index)


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
    (_richardson), as in fd_radial_eigs.  The coarsest grid is an index
    solve; the finer two each solve in a Sturm-certified value window
    around the previous grid's level (see _eigenvalue).  Raises ValueError
    unless index is an int >= 0.
    """
    if gamma * ring.a + 0.25 < 0 or gamma * ring.b + m * m < 0:
        raise OracleError("complex angular sector: radicals not real")
    l1 = _angular_fd_once(gamma, ring, m, index, ANGULAR_CELLS)
    l2 = _angular_fd_once(gamma, ring, m, index, 2 * ANGULAR_CELLS, near=l1)
    l3 = _angular_fd_once(gamma, ring, m, index, 4 * ANGULAR_CELLS, near=l2)
    return _richardson(l1, l2, l3)


def _level(levels: dict, key, solve):
    """levels[key], from solve() the first time a solve asks for the key."""
    if key not in levels:
        levels[key] = solve()
    return levels[key]


def _settled_level(level, r_max):
    """(level(R), doublings): r_max doubled until the level settles.

    R = r_max * 2**doublings is the first doubling at which level(R) lies
    within 1e-8 (1 + |level(R)|) of the level on the previous domain;
    DivergenceError if 4 doublings leave it unsettled.
    """
    prev = level(r_max)
    for doublings in range(1, 5):
        r_max *= 2.0
        lam = level(r_max)
        if abs(lam - prev) < 1e-8 * (1.0 + abs(lam)):
            return lam, doublings
        prev = lam
    raise DivergenceError("radial eigenvalue unsettled after 4 domain doublings")


def _consistency_map(
    spec: ProblemSpec, e: float, levels: dict, doublings: int | None
) -> tuple[float, int]:
    """One sweep: (F(E), doublings), F(E) = lambda_n(gamma(E)) - b(E) zero at a bound root.

    lambda_n is level n of the FD radial problem at gamma(E), whose
    centrifugal term takes the polar equation's quantized (ell + 1/2)^2, and
    b(E) = radial_equation_beta_sq(spec, E); spin Kratzer specs only.  The
    radial domain starts at r0(E) = 25 / sqrt(|b(E)|) (25 where |b(E)| is
    below 1e-3).  With `doublings` None it is doubled until the eigenvalue
    settles (_settled_level), and the doublings that took are returned.
    Otherwise the sweep solves once at r0(E) * 2**doublings, unverified, and
    returns `doublings` unchanged.

    `levels` holds one solve's FD levels: the angular level keyed by gamma
    and each radial level by (gamma, r_max).  A level found there is not
    solved again; every level solved here is added to it.
    """
    g = gamma_of(spec, e)
    if abs(g.imag) > 1e-12:
        raise DivergenceError("gamma left the real axis")
    g = g.real
    n, n_prime = spec.qn.n, spec.qn.n_prime
    try:
        lam_ang = _level(levels, g, lambda: fd_angular_eigs(g, spec.ring, spec.qn.m, n_prime))
    except OracleError as exc:
        raise DivergenceError(str(exc)) from exc

    def radial(r_max):
        return _level(
            levels, (g, r_max), lambda: radial_level(spec.potential, g, lam_ang, n, r_max)
        )

    b = radial_equation_beta_sq(spec, e).real
    r_max = 25.0 / math.sqrt(abs(b)) if abs(b) > 1e-3 else 25.0
    if doublings is not None:
        return radial(r_max * 2.0**doublings) - b, doublings
    lam_rad, doublings = _settled_level(radial, r_max)
    return lam_rad - b, doublings


#: Width at which `self_consistent_energy` stops closing its bracket.
BRACKET_TOL = 1e-9
#: Cap on the consistency sweeps of one `self_consistent_energy` call.
MAX_SWEEPS = 200
#: Step and half-width of the outward march for a bracket.
SCAN_STEP, SCAN_SPAN = 0.1, 4.0
#: Nodes of the coarsest radial FD grid in each sweep (the finer two have
#: 2 FD_NODES + 1 and 4 FD_NODES + 3).
FD_NODES = 900
#: Cells of the coarsest angular FD grid (the finer two have 2x and 4x as
#: many, so the three spacings halve as the radial grids' do).
ANGULAR_CELLS = 500


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
    problem from a coarsest grid of FD_NODES nodes; real-sector specs
    only.  DivergenceError is the documented outcome whenever no bound root
    exists in reach of the march.

    The radial domain is verified twice per solve: the first sweep whose
    radial solve completes doubles it until the eigenvalue settles, and
    every later sweep of the march and the bracket reuses the number of
    doublings that sweep returned.  The final check at the returned energy
    runs the full doubling test again and requires
    |F(E)| <= 1e-6 (1 + |b(E)|), so the returned energy always passes on a
    verified domain.  Brent's method returns a point it has swept, so the
    check reuses that sweep's angular level and its radial level at the
    recorded domain, and solves only the doubling test's other domains.
    Levels are kept for one call only; a second call solves them again.

    Raises ValueError for a non-finite initial_energy, and OracleError,
    before any sweep, for a spec outside the spin Kratzer sector (see the
    module's scope paragraph).
    """
    e0 = float(initial_energy)
    if not math.isfinite(e0):
        raise ValueError(f"initial_energy must be finite, got {initial_energy!r}")
    if not (spec.is_spin and isinstance(spec.potential, Kratzer)):
        raise OracleError("the self-consistent sweep solves the spin Kratzer sector only")
    budget = MAX_SWEEPS
    doublings = None
    levels = {}

    def sweep(e):
        """F at e, None where the sweep fails."""
        nonlocal budget, doublings
        if budget <= 0:
            raise DivergenceError("sweep budget exhausted")
        budget -= 1
        try:
            f, doublings = _consistency_map(spec, e, levels, doublings)
        except DivergenceError:
            return None
        return f

    known = {}

    def fval(e):
        if e not in known:
            known[e] = sweep(e)
        return known[e]

    # zeros of b(E) = (M - E)(C_s - E - M)
    b_zeros = (spec.mass, spec.symmetry.constant - spec.mass)
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
    doublings = None  # the final check runs the full doubling test
    f_star = sweep(e_star)
    b_star = radial_equation_beta_sq(spec, e_star).real
    if f_star is None or abs(f_star) > 1e-6 * (1.0 + abs(b_star)):
        raise DivergenceError("bracketed point is not a consistent energy")
    return e_star


def nonrel_energy_fd(params, qn):
    """FD energy of level n of the nonrelativistic separated radial problem.

    Solves -u''/(2 mu) + [V(r) + (L^2 - 1/4)/(2 mu r^2)] u = E u (hbar = 1)
    with the ring-quantized L = ell_eff as radial_level at gamma = 2 mu on
    FD_NODES base nodes, whose eigenvalue is gamma E; the independent check
    for the closed-form nonrelativistic spectra.  The radial domain starts
    at 6 (n + 1) for Kratzer and 3 sqrt(2 n + ell_eff + 10) for the
    oscillator and is doubled until the level settles (_settled_level);
    DivergenceError if 4 doublings leave it unsettled.
    """
    from .nonrel import coefficients_nr

    gamma = 2.0 * params.mu
    ell_eff = coefficients_nr(params, qn).ell_eff.real
    if isinstance(params.potential, Kratzer):
        r_max = 6.0 * (qn.n + 1)
    else:
        r_max = 3.0 * math.sqrt(2.0 * qn.n + ell_eff + 10.0)

    def level(r_max):
        return radial_level(params.potential, gamma, ell_eff**2, qn.n, r_max)

    return _settled_level(level, r_max)[0] / gamma
