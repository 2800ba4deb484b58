"""Numba/numpy twin equivalence and the backend switch."""

import os
import subprocess
import sys

import numpy as np
import pytest

from hyfermi import backend
from hyfermi.kernels import lattice_chi_sum_nb, lattice_chi_sum_np


def test_lattice_chi_sum_twins_agree():
    for nmax, fac, c1, c2 in ((5, 0.3, 0.4, 1.2), (17, 0.05, 0.3, 0.8),
                              (30, 0.02, 0.25, 0.55)):
        a = lattice_chi_sum_nb(nmax, fac, c1, c2)
        b = lattice_chi_sum_np(nmax, fac, c1, c2)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_lattice_chi_sum_counts_plateau():
    # with chi == 1 on the whole window the sum is just sum 1/(2p^2)
    nmax, fac = 4, 0.25
    got = lattice_chi_sum_nb(nmax, fac, 10.0, 11.0)
    n = np.arange(-nmax, nmax + 1)
    n2 = (n[:, None, None] ** 2 + n[None, :, None] ** 2
          + n[None, None, :] ** 2).ravel()
    n2 = n2[n2 > 0].astype(float)
    want = float(np.sum(1.0 / (2.0 * fac * fac * n2)))
    assert got == pytest.approx(want, rel=1e-12)


def test_backend_env_flag_selects_numpy():
    """HYFERMI_BACKEND=numpy must bind the unsuffixed kernel name to the
    numpy twin in a fresh interpreter."""
    code = (
        "from hyfermi import backend, kernels\n"
        "assert backend.BACKEND == 'numpy', backend.BACKEND\n"
        "assert not backend.USE_NUMBA\n"
        "assert kernels.lattice_chi_sum is kernels.lattice_chi_sum_np\n"
        "import numpy as np\n"
        "from hyfermi.quadrature import F_quadrature\n"
        "r = F_quadrature(1.0, tol=5e-2)\n"
        "assert abs(r.value - 51.390283318) / 51.39 < 5e-3\n"
    )
    env = dict(os.environ, HYFERMI_BACKEND="numpy")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_backend_reports_active_choice():
    assert backend.BACKEND in ("numba", "numpy")
    if backend.BACKEND == "numba":
        assert backend.NUMBA_AVAILABLE and backend.USE_NUMBA
