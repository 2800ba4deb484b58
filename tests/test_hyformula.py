"""Closed-form layer: anchor values, the two independent F codings, the
reflection law, and the energy breakdown."""

import math
import re

import numpy as np
import pytest

from hyfermi.hyformula import (
    _X_MAX,
    F_closed,
    F_from_f,
    FermiParams,
    baseline_energies,
    f_aux,
    hy_energy,
    hy_energy_error,
)
from hyfermi.quadrature import F_quadrature

from references import f_gauged

F1_ANCHOR = (48.0 / 35.0) * (11.0 - 2.0 * math.log(2.0)) \
    * (6.0 * math.pi ** 2) ** (1.0 / 3.0)


def test_f_closed_at_one_matches_anchor():
    assert F_closed(1.0) == pytest.approx(F1_ANCHOR, rel=1e-14)


def test_f_aux_at_one():
    # one-sided value (6 pi / 35)(11 - 2 ln 2)
    want = (6.0 * math.pi / 35.0) * (11.0 - 2.0 * math.log(2.0))
    assert f_aux(1.0) == pytest.approx(want, rel=1e-13)


def test_two_codings_agree_on_grid():
    for x in np.linspace(0.05, 4.0, 40):
        fc = F_closed(float(x))
        ff = F_from_f(float(x))
        assert abs(ff - fc) <= 1e-12 * abs(fc)


def test_gauge_term_drops_out_of_f_from_f():
    # f is only defined up to A*(x^(7/3) - 1); F must not see A
    pref = (4.0 / math.pi) * (6.0 * math.pi ** 2) ** (1.0 / 3.0)
    for x in (0.3, 1.0, 2.5):
        gauged = pref * (f_gauged(x, 17.5)
                         + x ** (7.0 / 3.0) * f_gauged(1.0 / x, 17.5))
        assert gauged == pytest.approx(F_from_f(x), rel=1e-11)


def test_reflection_law():
    for x in np.linspace(0.05, 4.0, 40):
        lhs = F_closed(1.0 / x)
        rhs = x ** (-7.0 / 3.0) * F_closed(float(x))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_limits_and_monotonicity():
    assert F_closed(0.0) == 0.0
    grid = np.linspace(1e-3, 6.0, 300)
    vals = [F_closed(float(x)) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        F_closed(-0.1)


def test_near_one_branch_is_smooth():
    # the quadruple zero of the singular group must suppress the log
    left = F_closed(1.0 - 1e-9)
    right = F_closed(1.0 + 1e-9)
    assert abs(left - F_closed(1.0)) < 1e-6
    assert abs(right - F_closed(1.0)) < 1e-6


def test_hy_energy_swap_symmetric():
    a = 0.37
    e1 = hy_energy(FermiParams(rho_up=2e-3, rho_down=5e-4), a)
    e2 = hy_energy(FermiParams(rho_up=5e-4, rho_down=2e-3), a)
    assert e1.total == e2.total
    assert e1.huang_yang == e2.huang_yang


def test_hy_energy_terms_positive_and_ordered():
    bd = hy_energy(FermiParams(rho_up=1e-3, rho_down=1e-3), 0.37)
    assert bd.kinetic > bd.mean_field > bd.huang_yang > 0.0
    assert bd.total == pytest.approx(
        bd.kinetic + bd.mean_field + bd.huang_yang)
    assert bd.error_order_exponent == pytest.approx(7.0 / 3.0 + 1.0 / 9.0)


@pytest.mark.parametrize("rho_up,rho_down,a", [
    (1e-3, 1e-3, 0.37), (2e-3, 5e-4, 1.2), (5e-4, 2e-3, 1.2),
    (1e-3, 0.0, 0.37), (1e-2, 3e-3, 0.3),
])
def test_hy_energy_error_is_the_slope_in_a(rho_up, rho_down, a):
    """energy_error = d(total)/da * a_error; the total is quadratic in a,
    so a centred difference of hy_energy is exact but for rounding."""
    params = FermiParams(rho_up=rho_up, rho_down=rho_down)
    h, a_error = 0.25, 3e-7
    slope = (hy_energy(params, a + h).total
             - hy_energy(params, a - h).total) / (2.0 * h)
    assert hy_energy_error(params, a, a_error) == pytest.approx(
        slope * a_error, rel=1e-9, abs=0.0)


def test_baseline_ordering():
    # first-order energy with a never exceeds the bare-potential one
    params = FermiParams(rho_up=1e-3, rho_down=2e-3)
    a, vhat0 = 0.37, 8.0 * math.pi * 0.67
    lss, ffg = baseline_energies(params, a, vhat0)
    assert lss <= ffg


def test_polarized_limit():
    bd = hy_energy(FermiParams(rho_up=1e-3, rho_down=0.0), 0.37)
    assert bd.mean_field == 0.0
    assert bd.huang_yang == 0.0
    assert bd.kinetic > 0.0


@pytest.mark.parametrize("rho_up,rho_down,name", [
    (math.nan, 1e-3, "rho_up"), (1e-3, math.nan, "rho_down"),
    (-1e-3, 1e-3, "rho_up"), (1e-3, -math.inf, "rho_down"),
])
def test_densities_must_be_nonnegative_numbers(rho_up, rho_down, name):
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        FermiParams(rho_up=rho_up, rho_down=rho_down)


@pytest.mark.parametrize("a", [math.nan, -0.1])
def test_scattering_length_must_be_a_nonnegative_number(a):
    params = FermiParams(rho_up=1e-3, rho_down=2e-3)
    with pytest.raises(ValueError, match="scattering length"):
        hy_energy(params, a)
    with pytest.raises(ValueError, match="scattering length"):
        baseline_energies(params, a, 1.0)


def test_x_max_is_the_last_x_whose_power_is_a_float():
    assert math.isfinite(_X_MAX ** (7.0 / 3.0))
    with pytest.raises(OverflowError):
        math.nextafter(_X_MAX, math.inf) ** (7.0 / 3.0)
    assert F_closed(_X_MAX) > 0.0 and F_from_f(_X_MAX) > 0.0


@pytest.mark.parametrize("fn", [F_closed, F_from_f, F_quadrature])
@pytest.mark.parametrize("x", [math.nextafter(_X_MAX, math.inf), 1e200])
def test_x_whose_power_overflows_is_refused_naming_it(fn, x):
    with pytest.raises(OverflowError, match=re.escape(f"x = {x}")):
        fn(x)


@pytest.mark.parametrize("fn", [lambda p: hy_energy(p, 0.37),
                                lambda p: hy_energy_error(p, 0.37, 1e-12)],
                         ids=["hy_energy", "hy_energy_error"])
@pytest.mark.parametrize("rho_up, rho_down", [
    (math.nextafter(_X_MAX, math.inf), 0.0), (1e-3, 1e200)])
def test_density_whose_power_overflows_is_refused_naming_both(fn, rho_up, rho_down):
    params = FermiParams(rho_up=rho_up, rho_down=rho_down)
    with pytest.raises(OverflowError, match=re.escape(
            f"rho_up = {rho_up}, rho_down = {rho_down}")):
        fn(params)
    fn(FermiParams(rho_up=min(rho_up, _X_MAX), rho_down=min(rho_down, _X_MAX)))


def test_f_from_f_refuses_x_whose_inverse_power_overflows():
    with pytest.raises(OverflowError, match=re.escape("x^(-7/3)")):
        F_from_f(1e-200)
