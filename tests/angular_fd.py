"""The retired angular finite-difference (FD) solve: a basis-free reference.

The oracle's polar level (oracle.fd_angular_eigs) is a Jacobi Ritz solve
whose basis starts with the operator's indicial exponents.  This module
solves the same polar equation with no basis at all: the sin^(1/2) factor
is removed (an exact transformation that leaves every eigenvalue
unchanged), the flux form (sin(theta) P')' is discretized on midpoint cells
of (0, pi/2) with a natural boundary at 0 and a Dirichlet wall on the last
cell's outer face (the ghost value -P_last), and the level of 500, 1000 and
2000 cells takes two Richardson steps.  It converges like h^2 only where
mu = sqrt(m^2 + gamma b) is 0 or at least about 1/2; below that the level
converges like h^(2 mu).

Each level comes from LAPACK's Sturm-sequence bisection (stebz, through
scipy's eigh_tridiagonal).  The coarsest grid is an index solve; each finer
grid solves by value on a window of +-WINDOW (1 + |lambda|) around the
coarser grid's level, kept only when a Sturm count certifies it (eigenvalue).
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

#: Half-width of the value window around a level estimate, relative to 1 + |estimate|.
WINDOW = 1e-3
#: Cells of the coarsest grid; the finer two have 2x and 4x as many.
CELLS = 500


def count_below(d, e, x):
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


def eigenvalue(d, e, index, near):
    """Eigenvalue `index` (0 the lowest) of the symmetric tridiagonal (d, e).

    With `near` None this is a stebz index solve.  An estimate `near` is
    widened by WINDOW (1 + |near|) to (lo, hi], and the value solve on it is
    kept only when the Sturm count at or below lo equals `index` and the
    window holds a value.  Any other case falls back to the index solve.
    """
    if near is not None:
        lo = near - WINDOW * (1.0 + abs(near))
        hi = near + WINDOW * (1.0 + abs(near))
        if count_below(d, e, lo) == index:
            window = eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi))
            if len(window):
                return window[0]
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(index, index))[0]


def angular_matrix(gamma, ring, m, cells, wall):
    """(d, e) of the angular FD matrix on `cells` cells of (0, pi/2).

    The last cell's outer face enters its kinetic entry `wall` times: 2 is
    the ghost value -P_last, the wall on that face; 1 is the older closure,
    the wall half a cell beyond pi/2.
    """
    h = (math.pi / 2.0) / cells
    centers = (np.arange(cells) + 0.5) * h
    faces = np.arange(cells + 1) * h
    sin_f = np.sin(faces)
    sin_c = np.sin(centers)
    q = 0.25 + (m * m + gamma * ring.b) / sin_c**2 + gamma * ring.a / np.cos(centers) ** 2
    kinetic = (sin_f[:cells] + sin_f[1:]) / h**2
    kinetic[-1] = (sin_f[-2] + wall * sin_f[-1]) / h**2
    diag = kinetic + q * sin_c
    off = -sin_f[1:cells] / h**2
    return diag / sin_c, off / np.sqrt(sin_c[:-1] * sin_c[1:])


def level_on(gamma, ring, m, index, cells, near):
    """Level `index` on `cells` cells, the wall on the last face (see eigenvalue)."""
    return eigenvalue(*angular_matrix(gamma, ring, m, cells, 2.0), index, near)


def angular_level(gamma, ring, m, index):
    """(ell + 1/2)^2 of polar level `index`: CELLS, 2 CELLS and 4 CELLS cells.

    R1 = (4 L2 - L1) / 3 and R2 = (4 L3 - L2) / 3 cancel the h^2 term, and
    (16 R2 - R1) / 15, returned, the h^4 term.
    """
    l1 = level_on(gamma, ring, m, index, CELLS, None)
    l2 = level_on(gamma, ring, m, index, 2 * CELLS, l1)
    l3 = level_on(gamma, ring, m, index, 4 * CELLS, l2)
    r1 = (4.0 * l2 - l1) / 3.0
    r2 = (4.0 * l3 - l2) / 3.0
    return (16.0 * r2 - r1) / 15.0
