"""The retired angular finite-difference (FD) solve: a basis-free reference.

The oracle's polar level (oracle.fd_angular_eigs) is a Jacobi Ritz solve
whose basis starts with the operator's indicial exponents.  Here the polar
equation, its sin^(1/2) factor removed (which leaves every eigenvalue
unchanged), has no basis: the flux form (sin(theta) P')' is discretized on
midpoint cells of (0, pi/2), natural at 0 and with a Dirichlet wall on the
last cell's outer face (the ghost value -P_last).  Each level is one LAPACK
index solve, and the levels of 500, 1000 and 2000 cells take two Richardson
steps.  The level converges like h^2 only where mu = sqrt(m^2 + gamma b) is
0 or at least about 1/2, and like h^(2 mu) below that.  At the 60 table-3
class-A roots it meets the Ritz level within 2.24e-9 (median 5.5e-11).  It
imports nothing from drsbound.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

#: Cells of the coarsest grid; the finer two have 2x and 4x as many.
CELLS = 500


def level_on(gamma, ring, m, index, cells):
    """Level `index` (0 the lowest) of the FD matrix on `cells` cells of (0, pi/2)."""
    h = (math.pi / 2.0) / cells
    centers = (np.arange(cells) + 0.5) * h
    sin_f = np.sin(np.arange(cells + 1) * h)
    sin_c = np.sin(centers)
    q = 0.25 + (m * m + gamma * ring.b) / sin_c**2 + gamma * ring.a / np.cos(centers) ** 2
    kinetic = (sin_f[:cells] + sin_f[1:]) / h**2
    kinetic[-1] = (sin_f[-2] + 2.0 * sin_f[-1]) / h**2
    d = (kinetic + q * sin_c) / sin_c
    e = -sin_f[1:cells] / h**2 / np.sqrt(sin_c[:-1] * sin_c[1:])
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(index, index))[0]


def angular_level(gamma, ring, m, index):
    """(ell + 1/2)^2 of polar level `index` from CELLS, 2 CELLS and 4 CELLS cells.

    R1 = (4 L2 - L1) / 3 and R2 = (4 L3 - L2) / 3 cancel the h^2 term, and
    (16 R2 - R1) / 15, returned, the h^4 term.
    """
    l1, l2, l3 = (level_on(gamma, ring, m, index, c * CELLS) for c in (1, 2, 4))
    r1 = (4.0 * l2 - l1) / 3.0
    r2 = (4.0 * l3 - l2) / 3.0
    return (16.0 * r2 - r1) / 15.0
