"""Momentum-space partition of unity and the Fermi momentum.

The low/high splitting chi_less + chi_greater = 1 interpolates with a
quintic smoothstep between the plateau radii 4*rho^(1/3-gamma) (value 1)
and 5*rho^(1/3-gamma) (value 0). The gap regulator is
epsilon = rho^(2/3+delta).
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CutoffConfig:
    """Cut-off parameters (gamma, delta) tied to a density rho.

    Constraints: 0 < gamma < 1/3, 0 < delta <= 8*gamma and
    2*gamma + delta/16 <= 1/3. Defaults gamma = 1/9, delta = 16/63.
    """

    rho: float
    gamma: float = 1.0 / 9.0
    delta: float = 16.0 / 63.0
    epsilon: float = field(init=False)
    c_lower: float = field(init=False)
    c_upper: float = field(init=False)

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0.0 < self.gamma < 1.0 / 3.0:
            raise ValueError(f"gamma must lie in (0, 1/3), got {self.gamma}")
        if not 0.0 < self.delta <= 8.0 * self.gamma:
            raise ValueError(
                f"delta must lie in (0, 8*gamma], got delta={self.delta} "
                f"with gamma={self.gamma}"
            )
        if 2.0 * self.gamma + self.delta / 16.0 > 1.0 / 3.0 + 1e-15:
            raise ValueError(
                f"2*gamma + delta/16 <= 1/3 violated: gamma={self.gamma}, "
                f"delta={self.delta}"
            )
        scale = self.rho ** (1.0 / 3.0 - self.gamma)
        object.__setattr__(self, "epsilon", self.rho ** (2.0 / 3.0 + self.delta))
        object.__setattr__(self, "c_lower", 4.0 * scale)
        object.__setattr__(self, "c_upper", 5.0 * scale)

    def with_rho(self, rho):
        return CutoffConfig(rho=rho, gamma=self.gamma, delta=self.delta)

    def chi_less(self, p):
        """Low-momentum cut-off at |p| = p; 1 below c_lower, 0 above c_upper."""
        u = np.clip((np.abs(p) - self.c_lower) / (self.c_upper - self.c_lower),
                    0.0, 1.0)
        return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)

    def chi_greater(self, p):
        return 1.0 - self.chi_less(p)


def fermi_momentum(rho_sigma):
    """kF = (6 pi^2 rho)^(1/3) for one spin component."""
    return (6.0 * np.pi ** 2 * rho_sigma) ** (1.0 / 3.0)
