"""Hot numeric loops, in numba and pure-numpy twins.

The lattice Riemann sum exists twice: ``*_nb`` (numba @njit) and
``*_np`` (numpy broadcasting). The unsuffixed name binds to whichever
twin the active backend selects; the tests import both twins directly.
Twins must agree to floating-point reassociation error, which tests
assert.
"""

import numpy as np

from .backend import USE_NUMBA, njit

# ------------------------------------------------------------- lattice sums


@njit(cache=True)
def lattice_chi_sum_nb(nmax, fac, c1, c2):
    inv_w = 1.0 / (c2 - c1)
    acc = 0.0
    for ix in range(-nmax, nmax + 1):
        for iy in range(-nmax, nmax + 1):
            for iz in range(-nmax, nmax + 1):
                n2 = ix * ix + iy * iy + iz * iz
                if n2 == 0:
                    continue
                r = fac * np.sqrt(n2)
                if r >= c2:
                    continue
                if r <= c1:
                    chi = 1.0
                else:
                    u = (r - c1) * inv_w
                    chi = 1.0 - u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
                acc += chi * chi / (2.0 * r * r)
    return acc


def lattice_chi_sum_np(nmax, fac, c1, c2):
    n = np.arange(-nmax, nmax + 1)
    plane = (n[:, None] ** 2 + n[None, :] ** 2).ravel()
    acc = 0.0
    # slab over the first index to keep memory flat at large nmax
    for i in n:
        n2 = (i * i + plane).astype(np.float64)
        n2 = n2[n2 > 0]
        r = fac * np.sqrt(n2)
        r = r[r < c2]
        u = np.clip((r - c1) / (c2 - c1), 0.0, 1.0)
        chi = 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
        acc += float(np.sum(chi * chi / (2.0 * r * r)))
    return acc


if USE_NUMBA:
    lattice_chi_sum = lattice_chi_sum_nb
else:
    lattice_chi_sum = lattice_chi_sum_np
