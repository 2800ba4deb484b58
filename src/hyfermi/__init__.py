"""Dilute spin-1/2 Fermi gas energy toolkit.

Computes the low-density ground-state energy expansion through the
Huang-Yang rho^(7/3) correction, cross-validates the closed-form
correction function F(x) against independent quadrature, and realizes
the particle-hole / quasi-bosonic operator constructions exactly on
small momentum lattices.
"""

__version__ = "0.1.0"

# every kernel is plain numpy; the name stays because benchmark tooling
# records hyfermi.BACKEND in its environment block on every run
BACKEND = "numpy"

from .hyformula import (
    FermiParams,
    HYEnergyBreakdown,
    F_closed,
    F_from_f,
    baseline_energies,
    f_aux,
    hy_energy,
)
from .potentials import (
    EtaFunction,
    RadialPotential,
    ScatteringSolution,
    born_length,
    bethe_goldstone_solve,
    periodize_phi,
    solve_scattering,
)
from .cutoffs import CutoffConfig
from .quadrature import (
    F_quadrature,
    gap_cutoff_study,
    lattice_sum_convergence,
    singular_integral_bound,
)
from .fock import (
    build_basis,
    build_corr_terms,
    build_hamiltonian,
    build_lattice,
    trial_state,
)

__all__ = [
    "BACKEND",
    "CutoffConfig",
    "EtaFunction",
    "FermiParams",
    "F_closed",
    "F_from_f",
    "F_quadrature",
    "HYEnergyBreakdown",
    "RadialPotential",
    "ScatteringSolution",
    "baseline_energies",
    "bethe_goldstone_solve",
    "born_length",
    "build_basis",
    "build_corr_terms",
    "build_hamiltonian",
    "build_lattice",
    "f_aux",
    "gap_cutoff_study",
    "hy_energy",
    "lattice_sum_convergence",
    "periodize_phi",
    "singular_integral_bound",
    "solve_scattering",
    "trial_state",
]
