"""Quadrature oracles: geometry of the slice measure, the pair integrand,
the independent F route, the principal-value closed forms, and the
scaling studies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hyfermi.cutoffs import CutoffConfig
from hyfermi.hyformula import F_closed, FermiParams
from hyfermi.quadrature import (
    F_quadrature,
    _axis,
    g_pointwise,
    gap_cutoff_study,
    inner_pair,
    lattice_chi_sum,
    lattice_sum_convergence,
    ode_check_f,
    p_integral_linear,
    p_integral_quadratic,
    pv_linear_epsilon,
    pv_quadratic_epsilon,
    singular_integral_bound,
    slice_measure,
    t_integral,
)


def pv_extrapolated(oracle, a, b, e1=1e-4, e2=2e-4):
    # the smoothed integral is linear in eps near a simple zero of the
    # denominator, so two nodes eliminate the leading error
    v1, v2 = oracle(a, b, e1), oracle(a, b, e2)
    return (e2 * v1 - e1 * v2) / (e2 - e1)


def ball_volume(kf):
    return 4.0 * math.pi * kf ** 3 / 3.0


# ------------------------------------------------------------ slice measure


def test_slice_measure_vanishes_off_support():
    assert slice_measure(2.0, 1.0, 0.5) == 0.0
    assert slice_measure(-5.0, 1.0, 0.5) == 0.0


def test_slice_measure_integrates_to_lens_volume():
    """Integrating the slice area over s recovers the volume of the ball
    shifted against its complement constraint."""
    kf, p = 1.0, 0.35
    s = np.linspace(-kf, kf, 20001)
    vol = float(np.trapezoid(slice_measure(s, kf, p), s))
    # |k| <= kf and |k + p| > kf leaves the ball minus the overlap lens
    d = p / 2.0
    lens = 2.0 * math.pi * (kf - d) ** 2 * (kf + d / 2.0) * (2.0 / 3.0)
    assert vol == pytest.approx(ball_volume(kf) - lens, rel=1e-6)


def test_inner_pair_large_p_limit():
    # far separated shells: the denominator is 2p^2 on the whole domain
    p = 200.0
    v, _ = inner_pair(p, 1.0, 0.7, 0.0, 1, 24, 22)
    want = ball_volume(1.0) * ball_volume(0.7) / (2.0 * p * p)
    assert v == pytest.approx(want, rel=1e-3)


def t_integral_by_quad(beta, p, kf, power):
    """The t-integral of the slice measure over (beta + p(p + 2t))^power,
    one adaptive quadrature per polynomial piece of the measure.

    Each piece is written in tau = t - t_a, its offset from the lower end,
    so neither the area nor the denominator cancels next to the corner;
    breakpoints at geometric offsets let quad find the peak there.
    """
    lo, kink = max(-kf, -0.5 * p), kf - p
    pieces = [(lo, kink, lambda tau, ta: 2.0 * math.pi * p * tau)] \
        if kink > lo else []
    pieces.append((max(lo, kink), kf,
                   lambda tau, ta: math.pi * (kf - ta - tau) * (kf + ta + tau)))
    total = 0.0
    for ta, tb, area in pieces:
        ua, width = beta + p * (p + 2.0 * ta), tb - ta
        total += quad(lambda tau: area(tau, ta) / (ua + 2.0 * p * tau) ** power,
                      0.0, width, points=[width * 4.0 ** -j for j in range(1, 20)],
                      epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


def pair_sum_2d(p, kf1, kf2, two_eps, power, n_gauss, n_levels):
    """inner_pair as the plain 2D node-pair sum over both Gauss axes."""
    s, ws = _axis(kf1, p, n_gauss, n_levels)
    t, wt = _axis(kf2, p, n_gauss, n_levels)
    den = 2.0 * p * p + two_eps + 2.0 * p * (s[:, None] + t[None, :])
    return float(ws @ den ** -power @ wt)


@settings(max_examples=80, deadline=None)
@given(p=st.floats(1e-3, 60.0), kf=st.floats(1e-3, 1.0),
       power=st.sampled_from([1, 2]), two_eps=st.floats(0.0, 1e-2),
       node=st.integers(0, 1000))
# shells far smaller than p, where the closed form alone would cancel
@example(p=50.0, kf=1e-3, power=2, two_eps=0.0, node=0)
@example(p=60.0, kf=1e-3, power=1, two_eps=1e-2, node=200)
@example(p=7.0, kf=0.01, power=1, two_eps=0.0, node=77)
# the s-node next to the corner s = t = -p/2
@example(p=1.0, kf=1.0, power=2, two_eps=0.0, node=0)
@example(p=1.9, kf=1.0, power=2, two_eps=0.0, node=5)
@example(p=0.05, kf=0.1, power=1, two_eps=0.0, node=0)
def test_t_integral_matches_quad_per_piece(p, kf, power, two_eps, node):
    s, _ = _axis(1.0, p, 16, 18)
    beta = two_eps + p * (p + 2.0 * s[node % len(s)])
    want = t_integral_by_quad(beta, p, kf, power)
    assert abs(t_integral(beta, p, kf, power) - want) <= 1e-12 * abs(want)


def test_t_integral_array_matches_scalars():
    beta = np.array([1e-6, 0.1, 0.5, 2.0])
    got = t_integral(beta, 0.7, 0.6, 2)
    want = [t_integral(b, 0.7, 0.6, 2) for b in beta]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("two_eps", [0.0, 1e-3])
def test_inner_pair_matches_2d_sum(power, two_eps):
    """The exact t-integral against the 2D node-pair sum at high order,
    corner reachable (p <= 2 min(kf)) or not."""
    for p in (0.3, 1.0, 1.5, 2.5, 7.0):
        for kf2 in (0.3, 0.8, 1.0):
            want = pair_sum_2d(p, 1.0, kf2, two_eps, power, 24, 30)
            got, n = inner_pair(p, 1.0, kf2, two_eps, power)
            assert got == pytest.approx(want, rel=1e-12)
            assert n == len(_axis(1.0, p, 16, 18)[0])


# ------------------------------------------------------------- g and F


def test_g_large_p_behaves_like_x_over_p_squared():
    x, p = 0.5, 50.0
    res = g_pointwise(x, p)
    assert res.value == pytest.approx(x / p ** 2, rel=0.05)
    assert not res.flagged


def test_g_domain_checks():
    with pytest.raises(ValueError):
        g_pointwise(1.5, 1.0)
    with pytest.raises(ValueError):
        g_pointwise(0.5, 0.0)


def test_f_quadrature_against_closed_form():
    for x in (0.5, 1.0):
        res = F_quadrature(x)
        assert not res.flagged
        assert abs(res.value - F_closed(x)) <= 5e-3 * F_closed(x)


def test_f_quadrature_monotone():
    vals = [F_quadrature(x).value for x in (0.25, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_f_quadrature_reflects_large_arguments():
    big = F_quadrature(2.0)
    small = F_quadrature(0.5)
    assert big.value == pytest.approx(2.0 ** (7.0 / 3.0) * small.value,
                                      rel=1e-12)


# ---------------------------------------------------- principal-value forms


@pytest.mark.parametrize("a,b", [(3.0, 1.0), (2.5, 0.5)])
def test_p_integral_quadratic_vs_epsilon_oracle(a, b):
    want = pv_extrapolated(pv_quadratic_epsilon, a, b)
    assert abs(p_integral_quadratic(a, b) - want) <= 1e-4


@pytest.mark.parametrize("a,b", [(1.5, 0.7), (2.0, -0.4)])
def test_p_integral_linear_vs_epsilon_oracle(a, b):
    want = pv_extrapolated(pv_linear_epsilon, a, b)
    assert abs(p_integral_linear(a, b) - want) <= 1e-4


def test_p_integral_quadratic_even_in_a():
    assert p_integral_quadratic(3.0, 1.0) == pytest.approx(
        p_integral_quadratic(-3.0, 1.0), rel=1e-14)


def test_p_integral_quadratic_decays_for_deep_b():
    vals = [abs(p_integral_quadratic(1.0, b)) for b in (-10.0, -100.0,
                                                        -1000.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.01


def test_p_integral_domain_errors():
    with pytest.raises(ValueError):
        p_integral_quadratic(1.0, 10.0)
    with pytest.raises(ValueError):
        p_integral_linear(0.0, 1.0)
    with pytest.raises(ValueError):
        p_integral_linear(2.0, 2.0)


def test_ode_residual_small():
    for x in (0.5, 2.0):
        assert ode_check_f(x, h=1e-4) <= 1e-4


def test_ode_residual_gauge_independent():
    r0 = ode_check_f(0.5, h=1e-4, A=0.0)
    r1 = ode_check_f(0.5, h=1e-4, A=25.0)
    assert abs(r0 - r1) <= 1e-3


# ------------------------------------------------------------------ studies


def test_gap_cutoff_study_converges_with_rho():
    params = FermiParams(rho_up=1e-3, rho_down=1e-3)
    cutoff = CutoffConfig(rho=1e-3)
    rows = gap_cutoff_study(params, cutoff, [1e-4, 1e-3, 1e-2])
    assert all(not r["flagged"] for r in rows)
    rel = [r["diff"] / abs(r["i_limit"]) for r in rows]
    assert rel[0] < rel[1] < rel[2]


def test_gap_cutoff_study_needs_positive_densities():
    cutoff = CutoffConfig(rho=1e-3)
    with pytest.raises(ValueError):
        gap_cutoff_study(FermiParams(rho_up=1e-3, rho_down=0.0), cutoff,
                         [1e-3])


def lattice_chi_sum_loop(nmax, fac, c1, c2):
    """lattice_chi_sum as a plain triple loop over the cube, one term at a
    time: an independent reference for the vectorized slab sum."""
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


def test_lattice_chi_sum_twins_agree():
    for nmax, fac, c1, c2 in ((5, 0.3, 0.4, 1.2), (17, 0.05, 0.3, 0.8),
                              (30, 0.02, 0.25, 0.55)):
        a = lattice_chi_sum_loop(nmax, fac, c1, c2)
        b = lattice_chi_sum(nmax, fac, c1, c2)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_lattice_chi_sum_counts_plateau():
    # with chi == 1 on the whole window the sum is just sum 1/(2p^2)
    nmax, fac = 4, 0.25
    got = lattice_chi_sum(nmax, fac, 10.0, 11.0)
    n = np.arange(-nmax, nmax + 1)
    n2 = (n[:, None, None] ** 2 + n[None, :, None] ** 2
          + n[None, None, :] ** 2).ravel()
    n2 = n2[n2 > 0].astype(float)
    want = float(np.sum(1.0 / (2.0 * fac * fac * n2)))
    assert got == pytest.approx(want, rel=1e-12)


def test_lattice_sum_approaches_integral():
    cutoff = CutoffConfig(rho=2e-3)
    rows = lattice_sum_convergence([16.0, 32.0, 64.0, 128.0], cutoff)
    diffs = [r["diff"] for r in rows]
    assert diffs == sorted(diffs, reverse=True)
    # Riemann error of a compact C^2 integrand: roughly one power of L
    assert diffs[-1] <= diffs[0] * (16.0 / 128.0) * 4.0


def test_lattice_sum_rejects_mismatched_density():
    cutoff = CutoffConfig(rho=3e-3)
    with pytest.raises(ValueError):
        lattice_sum_convergence([16.0], cutoff,
                                params=FermiParams(rho_up=1e-3,
                                                   rho_down=1e-3))


def test_singular_bound_finite_and_ordered():
    rows = singular_integral_bound([1e-3, 0.5, 1.0])
    for r in rows:
        assert math.isfinite(r["value"]) and not r["flagged"]
    assert rows[0]["value"] < rows[-1]["value"]


def test_singular_bound_domain():
    with pytest.raises(ValueError):
        singular_integral_bound([1.5])
