"""Cut-off window, Fermi momentum, and parameter constraints."""

import numpy as np
import pytest

from hyfermi.cutoffs import CutoffConfig, fermi_momentum


def test_partition_of_unity():
    cc = CutoffConfig(rho=1e-3)
    p = np.linspace(0.0, 2.0 * cc.c_upper, 4001)
    less = cc.chi_less(p)
    assert np.allclose(less + cc.chi_greater(p), 1.0, atol=1e-15)
    assert np.all((0.0 <= less) & (less <= 1.0))


def test_plateaus_and_window():
    cc = CutoffConfig(rho=1e-3)
    assert cc.c_lower == pytest.approx(4.0 * 1e-3 ** (1.0 / 3.0 - cc.gamma))
    assert cc.c_upper == pytest.approx(5.0 * 1e-3 ** (1.0 / 3.0 - cc.gamma))
    assert cc.chi_less(0.5 * cc.c_lower) == 1.0
    assert cc.chi_less(1.5 * cc.c_upper) == 0.0
    mid = cc.chi_less(0.5 * (cc.c_lower + cc.c_upper))
    assert 0.0 < mid < 1.0


def test_chi_less_smooth_at_joins():
    # quintic smoothstep: value and first two derivatives vanish at the
    # window edges, so a coarse difference across each edge stays tiny
    cc = CutoffConfig(rho=1e-3)
    h = 1e-7 * (cc.c_upper - cc.c_lower)
    for edge in (cc.c_lower, cc.c_upper):
        jump = abs(float(cc.chi_less(edge + h)) - float(cc.chi_less(edge - h)))
        assert jump < 1e-12


def test_epsilon_scale():
    cc = CutoffConfig(rho=1e-4)
    assert cc.epsilon == pytest.approx(1e-4 ** (2.0 / 3.0 + cc.delta))


def test_parameter_constraints():
    with pytest.raises(ValueError):
        CutoffConfig(rho=1e-3, gamma=0.4)
    with pytest.raises(ValueError):
        CutoffConfig(rho=1e-3, gamma=0.2, delta=1.7)
    with pytest.raises(ValueError):
        CutoffConfig(rho=1e-3, gamma=0.16, delta=0.16 * 8.0)
    with pytest.raises(ValueError):
        CutoffConfig(rho=0.0)


def test_with_rho_keeps_exponents():
    cc = CutoffConfig(rho=1e-3, gamma=0.1, delta=0.3)
    cc2 = cc.with_rho(1e-5)
    assert (cc2.gamma, cc2.delta) == (0.1, 0.3)
    assert cc2.c_lower == pytest.approx(4.0 * 1e-5 ** (1.0 / 3.0 - 0.1))


def test_fermi_momentum_inverts_density():
    rho = 2.3e-4
    kf = fermi_momentum(rho)
    assert kf ** 3 / (6.0 * np.pi ** 2) == pytest.approx(rho, rel=1e-14)
