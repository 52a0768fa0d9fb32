"""Asymptotic iteration method over truncated-Taylor (jet) arithmetic.

The AIM recasts y'' = lambda0(x) y' + s0(x) y into the recurrence

    lambda_k = lambda_{k-1}' + s_{k-1} + lambda0 lambda_{k-1}
    s_k      = s_{k-1}' + s0 lambda_{k-1}

whose quantization condition delta_k = lambda_k s_{k-1} - lambda_{k-1} s_k = 0
pins the eigenvalues.  Jets give the derivatives exactly without a CAS: each
iteration consumes one Taylor order, so a problem iterated k_max times needs
order K >= k_max + 1 (the default leaves a margin of one).

The recurrence is written once, in AimSeries.step.  An AimSeries is
resumable: it keeps the latest (lambda_k, s_k), so raising k costs one
step, not a rebuild.  Jets carry leading batch axes, so one series can run
at a whole array of eigenparameters: find_eigenvalue samples its grid with
one batched series, one array step per depth, and polishes each sign change
with the scalar series that aim_delta and aim_series run to a fixed depth.

The two exactly solvable families used by the spectral conditions (the
Kratzer-type radial problem and the ring-shaped angular problem), and the
general polynomial eigenfunction family in hypergeometric normal form, are
provided alongside the generic engine so the closed forms elsewhere in the
package can be cross-checked against independent AIM numerics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brent import brentq
from .specfun import PoleError, hyp2f1_terminating, pochhammer


class AimError(RuntimeError):
    pass


def _truncated_product(a, b):
    """Coefficients 0..K of the product of two coefficient arrays.

    Two 1-D operands keep np.convolve, so every scalar jet keeps its bits;
    batched operands broadcast one shifted multiply-add per coefficient.
    """
    n = a.shape[-1]
    if a.ndim == b.ndim == 1:
        return np.convolve(a, b)[:n]
    c = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for j in range(n):
        c[..., j:] += a[..., j : j + 1] * b[..., : n - j]
    return c


def _truncated_quotient(a, b):
    """Coefficients 0..K of a / b, solved term by term from b's constant term.

    As for the product, two 1-D operands keep the np.dot recurrence.
    """
    if np.any(b[..., 0] == 0):
        raise ZeroDivisionError("jet division by a jet vanishing at x0")
    n = a.shape[-1]
    q = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    q[..., 0] = a[..., 0] / b[..., 0]
    if a.ndim == b.ndim == 1:
        for i in range(1, n):
            q[i] = (a[i] - np.dot(q[:i], b[i:0:-1])) / b[0]
    else:
        for i in range(1, n):
            q[..., i] = (a[..., i] - (q[..., :i] * b[..., i:0:-1]).sum(axis=-1)) / b[..., 0]
    return q


class Jet:
    """Taylor coefficients of fixed order K around an expansion point x0.

    Supports the ring operations, division by units, and the derivative
    shift; truncated multiplication keeps low-order coefficients exact, so
    coefficient 0 (the value at x0) survives k <= K - 1 AIM iterations.

    The coefficients sit on the last axis of `coeffs`; any leading axes are
    a batch (one jet per eigenparameter sample) and every operation
    broadcasts over them.  A number or array operand is a constant jet with
    that batch shape, on either side: numpy defers to Jet's operators.
    """

    __slots__ = ("coeffs", "x0")
    __array_ufunc__ = None

    def __init__(self, coeffs, x0):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.x0 = x0

    @classmethod
    def variable(cls, x0, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = x0
        if order >= 1:
            c[1] = 1.0
        return cls(c, x0)

    @classmethod
    def constant(cls, value, x0, order):
        c = np.zeros(np.shape(value) + (order + 1,), dtype=complex)
        c[..., 0] = value
        return cls(c, x0)

    @property
    def order(self):
        return self.coeffs.shape[-1] - 1

    @property
    def value(self):
        return self.coeffs[..., 0]

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.x0, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs + other.coeffs, self.x0)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs, self.x0)

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs - other.coeffs, self.x0)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * np.asarray(other)[..., None], self.x0)
        return Jet(_truncated_product(self.coeffs, other.coeffs), self.x0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs / np.asarray(other)[..., None], self.x0)
        return Jet(_truncated_quotient(self.coeffs, other.coeffs), self.x0)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def deriv(self):
        k = self.order
        c = np.zeros(self.coeffs.shape, dtype=complex)
        c[..., :k] = self.coeffs[..., 1:] * np.arange(1, k + 1)
        return Jet(c, self.x0)


@dataclass
class AimProblem:
    """y'' = lambda0 y' + s0 y with jet-valued coefficient builders.

    lambda0 and s0 map (eigenparameter, variable jet) -> Jet; x0 is the
    evaluation point of the quantization condition and K the truncation
    order (defaults to k_max + 2).  The eigenparameter may be an array, in
    which case the jets carry its shape as batch axes.
    """

    lambda0: object
    s0: object
    x0: float
    k_max: int = 60
    order: int | None = None

    def jets(self, eigenparameter):
        order = self.order if self.order is not None else self.k_max + 2
        x = Jet.variable(self.x0, order)
        return self.lambda0(eigenparameter, x), self.s0(eigenparameter, x)


@dataclass
class AimSeriesResult:
    """Per-iteration (lambda_k, s_k) jets and delta_k values."""

    deltas: list = field(default_factory=list)
    pairs: list = field(default_factory=list)


class AimSeries:
    """The recurrence at one eigenparameter, or an array of them, advanced
    one depth at a time.

    Holds (lambda0, s0), the current (lambda_k, s_k) and every delta so
    far; `delta(k)` steps only as far as k asks and keeps what it computed,
    so raising the depth from k to k + 1 costs one step, not k + 1.  The
    jet order is fixed by the problem, not by k, so delta(k) is the same
    float however the series got there.  This step is the only place the
    recurrence and its rescale are written.

    An array eigenparameter runs one series per element as one batch: each
    step is a handful of array operations, the rescale is elementwise, and
    delta(k) is an array of the eigenparameter's shape.  Batched products
    may sum in another order than the scalar np.convolve, so a batched delta
    agrees with the scalar one to rounding, not bit for bit.
    """

    __slots__ = ("lam0", "s0", "lam", "s", "rescale", "deltas")

    def __init__(self, problem: AimProblem, eigenparameter, rescale=True):
        self.lam0, self.s0 = problem.jets(eigenparameter)
        self.lam, self.s = self.lam0, self.s0
        self.rescale = rescale
        self.deltas = []

    def step(self):
        """Advance to the next depth; returns the new (lambda_k, s_k)."""
        lam, s = self.lam, self.s
        lam_next = lam.deriv() + s + self.lam0 * lam
        s_next = s.deriv() + self.s0 * lam
        self.deltas.append(lam_next.value * s.value - lam.value * s_next.value)
        if self.rescale:
            scale = np.maximum(np.maximum(abs(lam_next.value), abs(s_next.value)), 1e-300)
            lam_next, s_next = lam_next * (1.0 / scale), s_next * (1.0 / scale)
        self.lam, self.s = lam_next, s_next
        return lam_next, s_next

    def delta(self, k: int):
        while len(self.deltas) < k:
            self.step()
        return self.deltas[k - 1]


def aim_delta(problem: AimProblem, eigenparameter, k: int):
    """delta_k(x0) = lambda_k s_{k-1} - lambda_{k-1} s_k, rescaled each step.

    The last delta of aim_series: the running rescale divides both sequences
    by a common magnitude, which multiplies delta_k by a positive constant
    and leaves its zeros (the quantization condition) untouched while
    preventing overflow.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return AimSeries(problem, eigenparameter).delta(k)


def aim_series(problem: AimProblem, eigenparameter, k_max=None, rescale=True) -> AimSeriesResult:
    """All (lambda_k, s_k) and delta_k for k = 1..k_max at one eigenparameter.

    Runs k_max steps of an AimSeries and keeps every pair, so deltas[k - 1]
    is bit-identical to aim_delta(problem, eigenparameter, k).
    rescale=False keeps the raw recurrence (useful for cross-checks against
    symbolic differentiation); the default guards against overflow at large
    k without moving any delta_k zero.
    """
    k_max = k_max if k_max is not None else problem.k_max
    series = AimSeries(problem, eigenparameter, rescale)
    result = AimSeriesResult(deltas=series.deltas)
    for _ in range(k_max):
        result.pairs.append(series.step())
    return result


def _delta_roots_on(problem, xs, vals, k):
    """delta_k roots between sign-changing neighbours of the sampled (xs, vals).

    vals come from the batched series, whose sums may round differently
    from the scalar aim_delta.  Where delta_k is rounding noise (deep k on
    a window without an eigenvalue), that can flip a sample's sign; brentq
    then finds the scalar delta_k NaN or of one sign at the panel's ends
    and raises before its first step, and the panel is passed over, since
    the scalar delta_k has no bracket there.
    """
    finite, sign = np.isfinite(vals), np.sign(vals)
    changes = np.flatnonzero(finite[:-1] & finite[1:] & (sign[:-1] != sign[1:]))
    roots = []
    for i in changes:
        evaluated = []

        def delta_k(e):
            evaluated.append(e)
            return aim_delta(problem, e, k).real

        try:
            roots.append(brentq(delta_k, xs[i], xs[i + 1], xtol=1e-14))
        except ValueError:
            if len(evaluated) > 2:
                raise
    return roots


#: `find_eigenvalue`'s first depth, stabilization tolerance and sample count.
K_START, STAB_TOL, SAMPLES = 3, 1e-10, 400


def find_eigenvalue(problem: AimProblem, interval):
    """Smallest eigenvalue in `interval`: first delta_k root stabilized in k.

    Stabilization follows the usual AIM practice: from depth K_START on,
    accept once the tracked root moves by less than STAB_TOL between three
    consecutive iteration depths.  Exactly solvable problems stabilize
    immediately.  The SAMPLES grid points run as one batched AimSeries that
    is extended a step as k grows, so the problem's jets are built once and
    reaching depth k costs k array steps in all.  The sampled deltas only
    choose brackets, by their sign and finiteness; each sign change is
    polished by brentq (`drsbound.brent`, the package's port of scipy's) on
    the scalar aim_delta at that k, so a root's bits do not depend on the
    batch.

    Raises ValueError for an interval that is not finite or has lo >= hi.
    """
    lo, hi = interval
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, got {interval!r}")
    xs = np.linspace(lo, hi, SAMPLES)
    series = AimSeries(problem, xs)
    prev = None
    streak = 0
    for k in range(K_START, problem.k_max + 1):
        vals = np.broadcast_to(series.delta(k).real, xs.shape)
        roots = _delta_roots_on(problem, xs, vals, k)
        if not roots:
            prev, streak = None, 0
            continue
        root = roots[0] if prev is None else min(roots, key=lambda r: abs(r - prev))
        if prev is not None and abs(root - prev) < STAB_TOL:
            streak += 1
            if streak >= 2:
                return root
        else:
            streak = 0
        prev = root
    raise AimError("AIM eigenvalue did not stabilize within k_max iterations")


def kratzer_radial_problem(zeta, g_d_r, x0=1.0, k_max=24) -> AimProblem:
    """AIM problem of the Kratzer-type radial equation in the decay variable.

    The eigenparameter u is the coefficient of the exponential envelope in
    the sign convention of the closed-form series; the k-th quantization
    condition terminates at u = -g_d_r / (zeta + k - 1), matching
    aim_exact_kratzer.
    """

    def lam0(u, x):
        return Jet.constant(-2.0 * u, x.x0, x.order) - (2.0 * zeta) / x

    def s0(u, x):
        return (-2.0 * (g_d_r + zeta * u)) / x

    return AimProblem(lam0, s0, x0, k_max=k_max)


def angular_problem(eta, ell_eff, x0=0.4, k_max=24) -> AimProblem:
    """AIM problem of the ring-shaped angular equation in x = sin^2(theta).

    The eigenparameter is q = eta + p; delta_{n'+1} vanishes on the series
    line q = -n' + ell_eff / 2.
    """

    def lam0(q, x):
        return (x * (2.0 * q + 1.0) - (2.0 * eta + 0.5)) / (x * (1.0 - x))

    def s0(q, x):
        return Jet.constant(q * q - 0.25 * ell_eff**2, x.x0, x.order) / (x * (1.0 - x))

    return AimProblem(lam0, s0, x0, k_max=k_max)


def oscillator_radial_problem(ell, x0=None, k_max=40) -> AimProblem:
    """Nonrelativistic radial oscillator (hbar = mu = omega = 1), eigenvalue E.

    x0 defaults to the maximum of the asymptotic factor r^(ell+1) e^(-r^2/2),
    i.e. sqrt(ell + 1); the spectrum is E = 2n + ell + 3/2.
    """
    if x0 is None:
        x0 = float(np.sqrt(ell + 1.0))

    def lam0(e, x):
        return 2.0 * x - (2.0 * (ell + 1.0)) / x

    def s0(e, x):
        return Jet.constant(2.0 * ell + 3.0 - 2.0 * e, x.x0, x.order)

    return AimProblem(lam0, s0, x0, k_max=k_max)


def aim_exact_kratzer(zeta, g_d_r, n: int):
    """Closed-form AIM termination of the Kratzer series: -g_d_r / (zeta + n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    denom = complex(zeta) + n
    if abs(denom) < 1e-14:
        raise AimError("degenerate series line: zeta + n = 0")
    return -complex(g_d_r) / denom


def aim_exact_angular(eta, p, ell_eff, n_prime: int):
    """Residual of the angular series line: eta + p - (-n' + ell_eff / 2)."""
    if n_prime < 0:
        raise ValueError("n_prime must be nonnegative")
    return complex(eta) + complex(p) - (-n_prime + 0.5 * complex(ell_eff))


def normal_form_sigma_rho(a, b, m, big_n):
    """sigma and rho of the polynomial eigenfunction family in normal form."""
    if b == 0:
        raise ValueError("rho requires b != 0 (use the confluent limit otherwise)")
    sigma = (2.0 * m + big_n + 3.0) / (big_n + 2.0)
    rho = ((2.0 * m + 1.0) * b + 2.0 * a) / ((big_n + 2.0) * b)
    return sigma, rho


def general_eigenfunction(n: int, x, *, big_n: int, b, sigma, rho, c2=1.0):
    """Polynomial eigenfunction y_n(x) of the hypergeometric normal form.

    y_n(x) = (-1)^n c2 (N+2)^n (sigma)_n 2F1(-n, rho + n; sigma; b x^(N+2)).
    sigma at a nonpositive integer is a Pochhammer pole and is rejected.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    sig = complex(sigma)
    if abs(sig.imag) < 1e-12 and sig.real < 0.5 and abs(sig.real - round(sig.real)) < 1e-12:
        raise PoleError(f"sigma = {sigma} is a Pochhammer pole")
    arg = b * complex(x) ** (big_n + 2)
    f = hyp2f1_terminating(n, complex(rho) + n, sig, arg).value
    return (-1.0) ** n * c2 * (big_n + 2.0) ** n * pochhammer(sig, n) * f
