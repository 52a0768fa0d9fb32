"""Independent oracles for the separated equations.

These never touch the closed-form spectra.  Each solver returns one level,
and both are Rayleigh-Ritz (Galerkin) solves in the Lagrange-mesh family of
Baye ("The Lagrange-mesh method", Phys. Rep. 565 (2015) 1): the basis starts
with the operator's own indicial exponents at its singular points, each
function is an orthonormal polynomial carried times sqrt(weight) by its
three-term recurrence (_orthonormal_rows), and every matrix element is exact
Gauss quadrature, so the mass matrix is the identity.  The radial solver is
a Laguerre basis on the half-line, with no radial domain (fd_radial_eigs;
Gauss-Laguerre nodes): it takes the Frobenius exponent at r = 0 from the
1/r^2 coefficient, and its level is checked against the one from half as
many functions.  The angular solver is a Jacobi basis in x = cos(theta)
(fd_angular_eigs; Gauss-Jacobi nodes): it takes the exponent at theta = 0
from the 1/sin^2 coefficient and the one at theta = pi/2 from the 1/cos^2
coefficient, and its level is checked against the one from ANGULAR_MARGIN
fewer functions.  Both node sets come from scipy.special.  A
self-consistent solve couples the two through the energy dependence of
gamma: it brackets a zero of F(E) = lambda_n(gamma(E)) - b(E), the radial
level minus the radial equation's constant b(E), skipping brackets that
hold a zero of b (the continuum edge), and closes it with Brent's method.
It validates relativistic class-A roots without evaluating any spectral
condition.

Independence: the exponents are the indicial roots of the coefficients of
the operator's singular terms, and each matrix is formed from the printed
operator by quadrature; no closed-form spectrum or eigenvalue enters.  Where
the basis holds the eigenfunction, the Ritz level is exact up to rounding,
which is the Rayleigh-Ritz property of a subspace, not a property of the
closed form: with a term of the operator mis-signed the level moves at
O(1), and with an exponent off the level still converges to the same value,
only slowly (tests/test_oracle.py).

Scope: the sweep's radial operator, -u'' + [(ell_eff^2 - 1/4)/r^2
+ gamma V(r)] u = b(E) u, is the equation the closed forms solve in the spin
Kratzer sector only, so self_consistent_energy refuses any other spec with
OracleError before it sweeps.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

try:
    # no caller: perfbench's tracer binds oracle.eigh_tridiagonal by name (ROADMAP item 19)
    from scipy.linalg import eigh_tridiagonal  # noqa: F401
    from scipy.special import roots_genlaguerre, roots_jacobi
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
    """A level or a self-consistent solve failed to settle."""


def _check_index(index):
    """ValueError unless index is an int >= 0."""
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or index < 0:
        raise ValueError(f"index must be an int >= 0, got {index!r}")


def _orthonormal_rows(f0, t, diag, off):
    """Rows f0 q_k(t), k < len(diag), of the orthonormal polynomials q_k of
    t q_k = off[k + 1] q_{k+1} + diag[k] q_k + off[k] q_{k-1}, q_0 = 1.

    Each Galerkin solve starts from f0 = sqrt(weight) q_0 at its quadrature
    nodes, so no factor of a row overflows where the weight is tiny.
    """
    f = np.empty((len(diag), t.size))
    f[0] = f0
    f[1] = (t - diag[0]) * f[0] / off[1]
    for j in range(1, len(diag) - 1):
        f[j + 1] = ((t - diag[j]) * f[j] - off[j] * f[j - 1]) / off[j + 1]
    return f


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
    whose weights are relatively accurate where they are tiny; the
    orthonormal L_k satisfy the three-term recurrence in t = -x.
    """
    alpha = (2.0 * s + 1.0) / power - 1.0
    x, w = roots_genlaguerre(size + 2, alpha - 2.0 / power)
    k = np.arange(size)
    root = np.sqrt(k * (k + alpha))
    f0 = np.sqrt(w) * math.exp(-0.5 * math.lgamma(alpha + 1.0))
    f = _orthonormal_rows(f0, -x, -(2 * k + 1 + alpha), root)
    p = (s / power - 0.5 * x + k[:, None]) * f
    p[1:] -= root[1:, None] * f[:-1]
    g = x ** (1.0 / power) * f
    return (power / h) ** 2 * (p @ p.T) + (g * v_eff(h * x ** (1.0 / power))) @ g.T


def _scale_level(v_eff, s, index):
    """An estimate of Kratzer level `index` that sets the radial scale.

    Level `index` of RADIAL_FUNCTIONS functions lies above the level at any
    scale h (Rayleigh-Ritz), and the lower it lies the better h = 1.3 /
    (2 sqrt|estimate|) fits it.  From h = 1, each estimate sets the next
    scale while the estimate falls by more than 10%, at most SCALE_PASSES
    times; the lowest estimate is returned.  A deep well takes several
    passes: with gamma D_e r_e = 838 the estimate at h = 1 is -34.8 against a
    level of -487.9, and the third pass lies 1.1e-5 above it.
    """
    estimate = np.linalg.eigvalsh(_galerkin_matrix(v_eff, s, 1, 1.0, RADIAL_FUNCTIONS))[index]
    for _ in range(SCALE_PASSES):
        h = 1.3 / (2.0 * math.sqrt(abs(estimate)))
        trial = np.linalg.eigvalsh(_galerkin_matrix(v_eff, s, 1, h, RADIAL_FUNCTIONS))[index]
        falls = trial < estimate - 0.1 * abs(estimate)
        estimate = min(estimate, trial)
        if not falls:
            break
    return estimate


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
    |b| < 1e-3, b is first estimated by the solver itself (_scale_level).
    The oscillator maps r = h x^(1/2); its solutions
    decay as e^(-sqrt(c4) r^2 / 2), c4 = gamma k / 2 its r^2 coefficient,
    so h = 1.3 c4^(-1/4).  The 1.3 keeps the basis off the level's own
    eigenfunction.

    One matrix of 2N functions (_galerkin_matrix) gives the level on N
    functions as its leading block; the 2N-function level is returned once
    the two agree to 1e-10 (1 + |level|).  N starts at RADIAL_FUNCTIONS and
    doubles up to MAX_RADIAL_FUNCTIONS, beyond which DivergenceError is
    raised, as it is for gamma <= 0, where gamma V holds no bound level.

    Domain: ell_eff^2 >= 1/4 (every polar level is at least 9/4), so s is
    at least 1.  There every drawn Kratzer level with |lambda| >= 1e-3
    settles and meets the hydrogenic closed form to 1e-12 relative, and
    every oscillator level meets sqrt(2 gamma k) (2 n + 1 + ell_eff)
    (tests/test_properties.py).  A Kratzer level with |lambda| < 1e-3 lies
    so close to the continuum that its eigenfunction can spread beyond
    what 2 MAX_RADIAL_FUNCTIONS functions at the scale resolve: it raises
    DivergenceError ("unsettled"), or it settles within the 1e-10 above
    in absolute terms.  Raises ValueError unless index is an int >= 0, and
    OracleError unless index < RADIAL_FUNCTIONS.
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
            b = _scale_level(v_eff, s, index)
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


def _jacobi_matrix(c_b, c_a, mu, s, size):
    """Matrix of the polar operator on `size` Jacobi functions in x = cos(theta).

    The operator is -((1 - x^2) P')' + [1/4 + c_b/(1 - x^2) + c_a/x^2] P on
    (0, 1), and the basis is x^s (1 - x^2)^(mu/2) p_k(y), y = 2 x^2 - 1,
    k < size, where p_k are the Jacobi polynomials orthonormal for
    (1 - y)^mu (1 + y)^(s - 1/2); up to one constant factor the mass matrix
    is the identity.  In weak form the kinetic term is Q_j Q_k and the
    potential term [(1 - y^2)/4 + 2 c_b (1 + y) + 2 c_a (1 - y)] p_j p_k,
    each against (1 - y)^(mu - 1) (1 + y)^(s - 3/2), where
    Q_k = (s (1 - y) - mu (1 + y)) p_k + 2 (1 - y^2) p_k' has degree k + 1
    ((1 - y^2) p_k' is a combination of p_k and p_{k-1}).  Each entry h(y)
    is thus a polynomial of degree at most 2 size, and size + 1 Gauss-Jacobi
    nodes (roots_jacobi) integrate it exactly.  Where mu >= 1 the nodes are
    those of the entries' own weight.  Where mu < 1 that weight puts a node
    within about mu/20 of y = 1, where 1 - y keeps few digits (the level
    would lose about 2e-15 / mu), so each entry is split as
    h = h(1) + (1 - y) g: g, of degree below 2 size, takes the nodes of
    (1 - y)^mu (1 + y)^(s - 3/2), and h(1) = 4 (mu^2 + c_b) p_j(1) p_k(1)
    the weight's exact integral, 2^(mu + s - 3/2) B(mu, s - 1/2); h(1)
    vanishes at mu = c_b = 0.  Both rules are exact for any c_b and c_a
    (and mu > 0 where c_b != 0); mu and s are the basis's exponents, which
    fd_angular_eigs takes from c_b and c_a.
    """
    alpha, beta = mu, s - 0.5
    split = mu < 1.0
    y, w = roots_jacobi(size + 1, mu if split else mu - 1.0, beta - 1.0)
    k = np.arange(size)
    ab = 2 * k + alpha + beta
    diag = (beta * beta - alpha * alpha) / (ab * (ab + 2.0))
    off = np.zeros(size)
    off[1:] = (2.0 / ab[1:]) * np.sqrt(
        k[1:] * (k[1:] + alpha) * (k[1:] + beta) * (k[1:] + alpha + beta)
        / ((ab[1:] - 1.0) * (ab[1:] + 1.0))
    )
    # p_0 = h0^(-1/2), h0 the integral of (1 - y)^alpha (1 + y)^beta
    log_h0 = (
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0)
    )
    p0 = math.exp(-0.5 * log_h0)
    f = _orthonormal_rows(np.sqrt(w) * p0, y, diag, off)
    q = (s * (1.0 - y) - mu * (1.0 + y) + 2.0 * k[:, None] * ((alpha - beta) / ab[:, None] - y)) * f
    q[1:] += (2.0 * (ab[1:] + 1.0) * off[1:])[:, None] * f[:-1]
    v = (1.0 - y * y) / 4.0 + 2.0 * c_b * (1.0 + y) + 2.0 * c_a * (1.0 - y)
    u = 1.0 / (1.0 - y) if split else 1.0
    matrix = (q * u) @ q.T + (f * (v * u)) @ f.T
    if split and mu > 0:
        at_one = _orthonormal_rows(np.full(1, p0), np.ones(1), diag, off)[:, 0]
        log_i0 = (
            (mu + beta - 1.0) * math.log(2.0)
            + math.lgamma(mu) + math.lgamma(beta) - math.lgamma(mu + beta)
        )
        singular = math.exp(log_i0) - np.sum(w * u)
        matrix += 4.0 * (mu * mu + c_b) * singular * np.outer(at_one, at_one)
    return matrix


def fd_angular_eigs(gamma, ring: RingParams, m: int, index: int):
    """Eigenvalue (ell + 1/2)^2 of the polar equation's level `index`, real sector only.

    In x = cos(theta) the polar equation reads -((1 - x^2) P')'
    + [1/4 + c_b/(1 - x^2) + c_a/x^2] P = lambda P on (0, 1), with
    c_b = m^2 + gamma b and c_a = gamma a, and the level belongs to the
    quantization family (bounded at theta = 0, vanishing at pi/2).  The
    name is the one perfbench's tracer spans; the solve is Galerkin, not
    FD.  Its basis (_jacobi_matrix) starts with the operator's indicial
    exponents: (1 - x^2)^(mu/2), mu = sqrt(c_b), at theta = 0, and x^s,
    s = 1/2 + sqrt(1/4 + c_a) the larger root, at theta = pi/2.

    One matrix of index + 2 ANGULAR_MARGIN functions gives the level on
    index + ANGULAR_MARGIN functions as its leading block; the larger
    basis's level is returned once the two agree to 1e-10 (1 + |level|),
    and DivergenceError is raised otherwise.  Raises ValueError unless
    index is an int >= 0, OracleError unless index < ANGULAR_LEVELS, and
    OracleError in the complex sector, where c_a + 1/4 < 0 or c_b < 0.
    """
    _check_index(index)
    if index >= ANGULAR_LEVELS:
        raise OracleError(f"level {index} lies beyond the {ANGULAR_LEVELS}-level angular basis")
    c_b, c_a = m * m + gamma * ring.b, gamma * ring.a
    if c_a + 0.25 < 0 or c_b < 0:
        raise OracleError("complex angular sector: radicals not real")
    size = index + ANGULAR_MARGIN
    mu, s = math.sqrt(c_b), 0.5 + math.sqrt(0.25 + c_a)
    matrix = _jacobi_matrix(c_b, c_a, mu, s, size + ANGULAR_MARGIN)
    coarse = np.linalg.eigvalsh(matrix[:size, :size])[index]
    level = np.linalg.eigvalsh(matrix)[index]
    if abs(level - coarse) > 1e-10 * (1.0 + abs(level)):
        raise DivergenceError(f"angular level unsettled at {size + ANGULAR_MARGIN} functions")
    return float(level)


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
#: Rescaled estimates after the first in `_scale_level`.
SCALE_PASSES = 8
#: Jacobi functions beyond the polar level's index in the smaller angular
#: basis; the larger one has twice as many (see fd_angular_eigs).
ANGULAR_MARGIN = 2
#: Polar levels the angular basis serves, n' < ANGULAR_LEVELS.  Its largest
#: matrix, of ANGULAR_LEVELS + 3 functions, takes tens of milliseconds, and
#: its level at n' = ANGULAR_LEVELS - 1 keeps 11 digits.
ANGULAR_LEVELS = 500


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
    (n >= RADIAL_FUNCTIONS) or a polar level n' beyond the angular basis
    (n' >= ANGULAR_LEVELS).
    """
    e0 = float(initial_energy)
    if not math.isfinite(e0):
        raise ValueError(f"initial_energy must be finite, got {initial_energy!r}")
    if not (spec.is_spin and isinstance(spec.potential, Kratzer)):
        raise OracleError("the self-consistent sweep solves the spin Kratzer sector only")
    if spec.qn.n >= RADIAL_FUNCTIONS:
        raise OracleError(f"level {spec.qn.n} lies beyond the {RADIAL_FUNCTIONS}-function basis")
    if spec.qn.n_prime >= ANGULAR_LEVELS:
        raise OracleError(
            f"level {spec.qn.n_prime} lies beyond the {ANGULAR_LEVELS}-level angular basis"
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
    as fd_radial_eigs at gamma = 2 mu, whose eigenvalue is gamma E, with
    L^2 the polar level n' of fd_angular_eigs at the same gamma; the
    independent check for the closed-form nonrelativistic spectra, both
    halves.  DivergenceError if a level does not settle, and OracleError
    for n >= RADIAL_FUNCTIONS or n' >= ANGULAR_LEVELS.
    """
    gamma = 2.0 * params.mu
    ell_eff_sq = fd_angular_eigs(gamma, params.ring, qn.m, qn.n_prime)
    return fd_radial_eigs(params.potential, gamma, ell_eff_sq, qn.n, None) / gamma
