"""Closed-form special functions feeding the wavefunctions and norms.

Terminating hypergeometric series are summed by forward recurrence on the
term ratio (never through Gamma quotients), so they stay finite for degrees
well beyond anything the tables need and accept complex parameters: the
pseudospin sector routinely makes eta, p and zeta complex.  They return the
sum itself: a complex for a Python number x, an array shaped like x
otherwise.
"""

from __future__ import annotations

import math

import numpy as np


class PoleError(ValueError):
    """Evaluation at a pole of Gamma or a Pochhammer symbol."""


def _is_nonpositive_int(z):
    z = complex(z)
    return abs(z.imag) < 1e-12 and z.real < 0.5 and abs(z.real - round(z.real)) < 1e-12


def gamma_fn(x: float) -> float:
    """Real Gamma function; poles at 0, -1, -2, ... are rejected."""
    if _is_nonpositive_int(x):
        raise PoleError(f"Gamma pole at x = {x}")
    return math.gamma(x)


def pochhammer(z, n: int):
    """(z)_n = z (z+1) ... (z+n-1), complex-capable, (z)_0 = 1."""
    out = 1.0 + 0.0j
    for j in range(n):
        out *= z + j
    return out


def _terminating_series(n, c, x, b=None):
    """Sum of t_0..t_n with t_0 = 1, t_(j+1) = t_j (-n+j) [(b+j)] x / ((c+j)(j+1)).

    A Python number x is summed in complex arithmetic.  Arrays and numpy
    scalars keep their dtype, so real ones stay on float arithmetic, and are
    summed elementwise.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    for j in range(n):
        if abs(complex(c) + j) < 1e-14:
            raise PoleError(f"Pochhammer pole: c = {c} hits a nonpositive integer")
    if isinstance(x, (int, float, complex)) and not isinstance(x, np.generic):
        c, x = complex(c), complex(x)
        b = None if b is None else complex(b)
        total = term = 1.0 + 0.0j
    else:
        x = np.asarray(x)
        x = x.astype(np.result_type(x, float), copy=False)
        total = term = np.ones_like(x)
    for j in range(n):
        step = -n + j if b is None else (-n + j) * (b + j)
        term = term * (step * x / ((c + j) * (j + 1)))
        total = total + term
    return total


def hyp1f1_terminating(n: int, c, x):
    """1F1(-n; c; x) as a finite sum of n + 1 terms; x may be an array."""
    return _terminating_series(n, c, x)


def hyp2f1_terminating(n: int, b, c, x):
    """2F1(-n, b; c; x) as a finite sum of n + 1 terms; x may be an array."""
    return _terminating_series(n, c, x, b)


def laguerre(n: int, alpha, x):
    """Generalized Laguerre L_n^alpha(x) by the stable three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1.0 + 0.0j if isinstance(alpha, complex) or isinstance(x, complex) else 1.0
    lm1, l0 = 1.0, 1.0 + alpha - x
    for j in range(1, n):
        lm1, l0 = l0, ((2 * j + 1 + alpha - x) * l0 - (j + alpha) * lm1) / (j + 1)
    return l0


def jacobi(n: int, a, b, x):
    """Jacobi P_n^(a,b)(x) by the standard three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        return 1.0 + 0.0j if any(isinstance(v, complex) for v in (a, b, x)) else 1.0
    pm1 = 1.0
    p0 = 0.5 * (a - b) + 0.5 * (a + b + 2) * x
    for j in range(2, n + 1):
        c1 = 2 * j * (j + a + b) * (2 * j + a + b - 2)
        c2 = (2 * j + a + b - 1) * ((2 * j + a + b) * (2 * j + a + b - 2) * x + a * a - b * b)
        c3 = 2 * (j + a - 1) * (j + b - 1) * (2 * j + a + b)
        pm1, p0 = p0, (c2 * p0 - c3 * pm1) / c1
    return p0


def jacobi_norm_integral(a: float, b: float, n: int) -> float:
    """int_{-1}^{1} (1-x)^(a-1) (1+x)^b [P_n^(a,b)(x)]^2 dx for a > 0, b > -1."""
    if a <= 0 or b <= -1:
        raise ValueError("requires a > 0 and b > -1")
    return (
        2.0 ** (a + b)
        * gamma_fn(a + n + 1)
        * gamma_fn(b + n + 1)
        / (math.factorial(n) * a * gamma_fn(a + b + n + 1))
    )


def jacobi_weight_norm_integral(a: float, b: float, n: int) -> float:
    """Orthogonality norm int_{-1}^{1} (1-x)^a (1+x)^b [P_n^(a,b)(x)]^2 dx."""
    if a <= -1 or b <= -1:
        raise ValueError("requires a > -1 and b > -1")
    return (
        2.0 ** (a + b + 1)
        * gamma_fn(a + n + 1)
        * gamma_fn(b + n + 1)
        / ((2 * n + a + b + 1) * math.factorial(n) * gamma_fn(n + a + b + 1))
    )


def laguerre_norm_integrals(a: float, n: int) -> tuple[float, float]:
    """The two Laguerre integrals used by the normalization constants.

    weighted   : int_0^inf e^-x x^a [L_n^(a-1)(x)]^2 dx = (a+2n) Gamma(a+n) / n!
    unweighted : int_0^inf e^-x x^a [L_n^a(x)]^2 dx     = Gamma(a+n+1) / n!
    """
    weighted = (a + 2 * n) * gamma_fn(a + n) / math.factorial(n)
    unweighted = gamma_fn(a + n + 1) / math.factorial(n)
    return weighted, unweighted
