"""Asymptotic iteration method over truncated-Taylor (jet) arithmetic.

The AIM recasts y'' = lambda0(x) y' + s0(x) y into the recurrence

    lambda_k = lambda_{k-1}' + s_{k-1} + lambda0 lambda_{k-1}
    s_k      = s_{k-1}' + s0 lambda_{k-1}

whose quantization condition delta_k = lambda_k s_{k-1} - lambda_{k-1} s_k = 0
pins the eigenvalues.  Jets give the derivatives exactly without a CAS: each
iteration drops one Taylor order and delta_k reads coefficient 0 after k of
them, so a series of order K, coefficients 0..K of lambda0 and s0, yields
delta_1..delta_K.  Coefficient i of every scalar jet operation (np.convolve's
per-output dot, the quotient recurrence, the derivative shift) is computed
from coefficients <= i alone, in the same order at any length, so a scalar
delta_k is the same float at any order >= k.

The recurrence is written once, in the generator _deltas, on the jets'
coefficient arrays.  Jets carry leading batch axes, so one series can run at
a whole array of eigenparameters: find_eigenvalue samples its grid with one
batched series of order k_max, one array step per depth, and at each depth
polishes one sign change, the one by the root it tracks, with the scalar
series of order k that aim_delta runs.  The batch only chooses brackets by
sign, so it runs in float64 where the problem is real, with one matmul per
product by an unbatched jet; the scalar series keeps complex jets and
np.convolve, so every root keeps its bits.  Where every sampled delta_k is
rounding noise, the search stops with AimError rather than polish a noise
sign change.

The two exactly solvable families used by the spectral conditions (the
Kratzer-type radial problem and the ring-shaped angular problem) are
provided alongside the generic engine, with their closed-form termination
conditions, so the closed forms elsewhere in the package can be
cross-checked against independent AIM numerics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brent import brentq


class AimError(RuntimeError):
    pass


def _truncated_product(a, b):
    """Coefficients 0..K of the product of two coefficient arrays.

    Two 1-D operands keep np.convolve, so every scalar jet keeps its bits.
    Batched operands take the first path that applies, and the result has
    their common dtype:

    - A constant a (every row j >= 1 zero, checked first) is one
      elementwise multiply a[..., :1] * b: every other term of the loop is
      a product with an exact zero.
    - An unbatched (1-D) a is one matmul b @ T(a).T, T(a) being a's
      lower-triangular Toeplitz matrix.  BLAS sums in its own order, so
      this agrees with the loop to rounding.  Where an operand has a
      non-finite coefficient, those coefficients are zeroed before the
      matmul and each lane is NaN from the loop's lowest non-finite index,
      the smaller of a's first and that lane of b's first, on.
    - Otherwise the loop: one shifted multiply-add per coefficient j of a,
      c[i] += a[j] b[i - j] in order of j, coefficient-major: the
      coefficient axis goes first, b is copied contiguous so each
      b[:n - j] is one block, and a is read as a view, one row per
      multiply.

    Leaving out the products with exact zeros keeps each finite nonzero
    coefficient of the loop, and each lane's lowest non-finite index; only
    the sign of an exact zero may differ.
    """
    n = a.shape[-1]
    if a.ndim == b.ndim == 1:
        return np.convolve(a, b)[:n]
    if not a[..., 1:].any():
        return a[..., :1] * b
    if a.ndim == 1:
        finite_a, finite_b = np.isfinite(a), np.isfinite(b)
        if finite_a.all() and finite_b.all():
            # row q of the reversed window view is a shifted right by q: T(a).T
            padded = np.concatenate((np.zeros(n - 1, a.dtype), a))
            return b @ np.lib.stride_tricks.sliding_window_view(padded, n)[::-1]
        c = _truncated_product(np.where(finite_a, a, 0), np.where(finite_b, b, 0))
        c[np.arange(n) >= np.minimum(_first(~finite_a), _first(~finite_b))[..., None]] = np.nan
        return c
    shape = np.broadcast_shapes(a.shape, b.shape)
    a = np.moveaxis(np.broadcast_to(a, shape), -1, 0)
    b = np.ascontiguousarray(np.moveaxis(np.broadcast_to(b, shape), -1, 0))
    c = np.zeros(b.shape, dtype=np.result_type(a, b))
    for j in range(n):
        c[j:] += a[j] * b[: n - j]
    return np.moveaxis(c, 0, -1)


def _first(mask):
    """Per lane, the first index where mask holds (the coefficient count if none)."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), mask.shape[-1])


def _truncated_quotient(a, b):
    """Coefficients 0..K of a / b, solved term by term from b's constant term.

    As for the product, two 1-D operands keep the np.dot recurrence.
    """
    if np.any(b[..., 0] == 0):
        raise ZeroDivisionError("jet division by a jet vanishing at x0")
    n = a.shape[-1]
    q = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    q[..., 0] = a[..., 0] / b[..., 0]
    if a.ndim == b.ndim == 1:
        for i in range(1, n):
            q[i] = (a[i] - np.dot(q[:i], b[i:0:-1])) / b[0]
    else:
        # batch-last, unlike the product: .sum(axis=-1) is a pairwise sum whose order a
        # coefficient-major layout would change
        for i in range(1, n):
            q[..., i] = (a[..., i] - (q[..., :i] * b[..., i:0:-1]).sum(axis=-1)) / b[..., 0]
    return q


def _deriv(c):
    """Coefficients 0..K - 1 of the derivative of coefficients 0..K: (i + 1) c[i + 1]."""
    return c[..., 1:] * np.arange(1, c.shape[-1])


class Jet:
    """Taylor coefficients of fixed order K around an expansion point x0.

    Only the coefficients are kept; x0 enters through Jet.variable.
    Supports the ring operations and division by units; truncated
    multiplication keeps low-order coefficients exact, so coefficient 0
    (the value at x0) survives k <= K AIM iterations.

    The coefficients sit on the last axis of `coeffs`; any leading axes are
    a batch (one jet per eigenparameter sample) and every operation
    broadcasts over them.  A number or array operand is a constant jet with
    that batch shape, on either side: numpy defers to Jet's operators.

    Coefficients are float64 or complex128, as given (other dtypes are
    promoted), and an operation on two jets keeps their common dtype.
    Jet.variable and Jet.constant, which also make a number operand a jet,
    build complex jets.
    """

    __slots__ = ("coeffs",)
    __array_ufunc__ = None

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs)
        self.coeffs = coeffs.astype(np.promote_types(coeffs.dtype, float), copy=False)

    @classmethod
    def variable(cls, x0, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = x0
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def constant(cls, value, order):
        c = np.zeros(np.shape(value) + (order + 1,), dtype=complex)
        c[..., 0] = value
        return cls(c)

    @property
    def order(self):
        return self.coeffs.shape[-1] - 1

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * np.asarray(other)[..., None])
        return Jet(_truncated_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs / np.asarray(other)[..., None])
        return Jet(_truncated_quotient(self.coeffs, other.coeffs))

    def __rtruediv__(self, other):
        return self._coerce(other) / self


@dataclass
class AimProblem:
    """y'' = lambda0 y' + s0 y with jet-valued coefficient builders.

    lambda0 and s0 map (eigenparameter, variable jet) to a Jet, or to a
    number or array, which is a constant jet; x0 is the evaluation point of
    the quantization condition and of the variable jet.  `jets` truncates
    them at a given order; k iterations need order k, and no depth past
    k_max is served.  The eigenparameter may be an array, in which case the
    jets carry its shape as batch axes.
    """

    lambda0: object
    s0: object
    x0: float
    k_max: int

    def jets(self, eigenparameter, order):
        x = Jet.variable(self.x0, order)
        return x._coerce(self.lambda0(eigenparameter, x)), x._coerce(self.s0(eigenparameter, x))


def _deltas(problem, eigenparameter, order):
    """(delta_k, |lambda_k s_{k-1}| + |lambda_{k-1} s_k|) for k = 1..order.

    The recurrence on the coefficient arrays of the problem's jets of that
    order: step k keeps coefficients 0..order - k of (lambda_k, s_k), since
    the derivative drops one and delta_k reads only coefficient 0, so a
    series of order K serves exactly depths 1..K.  After each step both
    sequences are divided by max(|lambda_k(x0)|, |s_k(x0)|), which
    multiplies every later delta by a positive constant and prevents
    overflow.  The second value bounds the rounding of delta_k's
    cancellation: where delta_k is a few ulps of it, its sign is noise.

    An array eigenparameter runs one series per element as one batch, and
    each delta is an array of its shape.  A batch whose jets have every
    imaginary part exactly 0 runs on their real parts in float64, where
    complex arithmetic would give the same finite real parts at several
    times the cost; a scalar series keeps complex jets.  Batched products
    may sum in another order than the scalar np.convolve, so a batched
    delta agrees with the scalar one to rounding, not bit for bit.
    """
    lam0, s0 = (jet.coeffs for jet in problem.jets(eigenparameter, order))
    if np.ndim(eigenparameter) and not (lam0.imag.any() or s0.imag.any()):
        lam0, s0 = lam0.real, s0.real
    lam, s = lam0, s0
    for n in range(order, 0, -1):
        lam_next = _deriv(lam) + s[..., :n] + _truncated_product(lam0[..., :n], lam[..., :n])
        s_next = _deriv(s) + _truncated_product(s0[..., :n], lam[..., :n])
        plus, minus = lam_next[..., 0] * s[..., 0], lam[..., 0] * s_next[..., 0]
        yield plus - minus, abs(plus) + abs(minus)
        scale = np.maximum(np.maximum(abs(lam_next[..., 0]), abs(s_next[..., 0])), 1e-300)
        inverse = np.asarray(1.0 / scale)[..., None]
        lam, s = lam_next * inverse, s_next * inverse


def aim_delta(problem: AimProblem, eigenparameter, k: int):
    """delta_k(x0) = lambda_k s_{k-1} - lambda_{k-1} s_k, rescaled each step.

    The last delta of the series of order k (see _deltas), for an int k with
    1 <= k <= the problem's k_max; ValueError otherwise, before any jet is
    built.  The rescale leaves delta_k's zeros (the quantization condition)
    untouched.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an int, got {k!r}")
    if not 1 <= k <= problem.k_max:
        raise ValueError(f"k must satisfy 1 <= k <= k_max = {problem.k_max}, got {k!r}")
    for delta, _ in _deltas(problem, eigenparameter, k):
        pass
    return delta


def _polish(problem, a, b, k):
    """The scalar delta_k root brentq finds on [a, b], or None if it refuses the ends.

    The bracket comes from the batched samples, whose sums may round
    differently from the scalar aim_delta.  Where delta_k is rounding noise
    (deep k on a window without an eigenvalue), that can flip a sample's
    sign; brentq then finds the scalar delta_k NaN or of one sign at the
    ends and raises before its first step, and the bracket gives no root,
    since the scalar delta_k has none there.
    """
    evaluated = []

    def delta_k(e):
        evaluated.append(e)
        return aim_delta(problem, e, k).real

    try:
        return brentq(delta_k, a, b, xtol=1e-14)
    except ValueError:
        if len(evaluated) > 2:
            raise
        return None


#: `find_eigenvalue`'s first depth, stabilization tolerance and sample count.
K_START, STAB_TOL, SAMPLES = 3, 1e-10, 400

#: |delta_k| at or below this multiple of its cancellation bound, at every
#: sample, is rounding noise.  On the validate draws' Kratzer windows the
#: largest ratio falls about tenfold per depth to a floor near 3e-16, and at
#: the first depth where it is below 5e-15 a window holds 18 to 177 sign
#: changes.  Any value from 1e-15 to 1e-12 keeps every root the tests pin
#: and validate's polish work (235 aim_delta and 39 brentq calls); above
#: 1e-14 the empty oscillator window (4.6, 5.0) stops before its first
#: refused bracket.
_NOISE = 1e-14


def find_eigenvalue(problem: AimProblem, interval):
    """Smallest eigenvalue in `interval`: first delta_k root stabilized in k.

    Stabilization follows the usual AIM practice: from depth K_START on,
    accept once the tracked root moves by less than STAB_TOL between three
    consecutive iteration depths.  Exactly solvable problems stabilize
    immediately.  The SAMPLES grid points run as one batched series of
    order k_max (see _deltas), so the problem's jets are built once and
    reaching depth k costs k array steps in all; for a real problem the
    batch is float64.  The sampled deltas only choose brackets, by their
    sign and finiteness, and each depth polishes one: the sign change that
    holds the tracked root, else the one nearest it by the distance to its
    ends (the lower on a tie), or the lowest when none is tracked.  brentq
    (`drsbound.brent`, the package's port of scipy's) polishes it on the
    scalar, complex aim_delta at that k, so a root's bits do not depend on
    the batch.  A bracket brentq refuses (see _polish) leaves the depth
    without a root, which resets the track.

    Raises AimError at the first depth whose delta is rounding noise at
    every sample (within _NOISE of its cancellation bound), where a sign
    change marks no eigenvalue, or when no root stabilizes by k_max; raises
    ValueError for an interval that is not finite or has lo >= hi.

    Two limits.  It finds only real eigenvalues: the search reads sign
    changes of Re(delta_k) on the real interval, also for a problem with
    complex coefficients, whose eigenvalue may not be real.  And at
    `kratzer_radial_problem`'s default k_max = 24 it raises AimError on most
    excited Kratzer windows (on 15 of 24 drawn n = 1 windows and 11 of 14
    at n = 2), where delta_k has not stabilized by then.
    """
    lo, hi = interval
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, got {interval!r}")
    xs = np.linspace(lo, hi, SAMPLES)
    prev = None
    streak = 0
    for k, (delta, bound) in enumerate(_deltas(problem, xs, problem.k_max), 1):
        if k < K_START:
            continue
        if np.all(abs(delta) <= _NOISE * bound):
            raise AimError(f"AIM eigenvalue did not stabilize: delta_{k} is rounding noise")
        vals = np.broadcast_to(delta.real, xs.shape)
        finite, sign = np.isfinite(vals), np.sign(vals)
        changes = np.flatnonzero(finite[:-1] & finite[1:] & (sign[:-1] != sign[1:]))
        if changes.size:
            # prev's own bracket has a negative gap; argmin takes the lower on a tie
            gap = 0.0 if prev is None else np.maximum(xs[changes] - prev, prev - xs[changes + 1])
            i = changes[np.argmin(gap)]
        root = _polish(problem, xs[i], xs[i + 1], k) if changes.size else None
        if root is None:
            prev, streak = None, 0
            continue
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
        return -2.0 * u - (2.0 * zeta) / x

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
        return (q * q - 0.25 * ell_eff**2) / (x * (1.0 - x))

    return AimProblem(lam0, s0, x0, k_max=k_max)


def oscillator_radial_problem(ell, k_max) -> AimProblem:
    """Nonrelativistic radial oscillator (hbar = mu = omega = 1), eigenvalue E.

    x0 is the maximum of the asymptotic factor r^(ell+1) e^(-r^2/2), i.e.
    sqrt(ell + 1); the spectrum is E = 2n + ell + 3/2.
    """
    x0 = float(np.sqrt(ell + 1.0))

    def lam0(e, x):
        return 2.0 * x - (2.0 * (ell + 1.0)) / x

    def s0(e, x):
        return 2.0 * ell + 3.0 - 2.0 * e

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
