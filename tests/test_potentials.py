"""Scattering solver, Fourier transforms, periodization, pair amplitudes,
and the in-medium scattering equation."""

import json
import math

import numpy as np
import pytest

from hyfermi.potentials import (
    EtaFunction,
    RadialPotential,
    _bg_radial_matrix,
    _simpson_weights,
    bethe_goldstone_solve,
    born_length,
    fourier_V,
    fourier_Vf,
    lambda_shift,
    periodize_phi,
    scattering_length_from_integral,
    solve_scattering,
)


def square_well_exact(V0, R):
    kappa = math.sqrt(V0 / 2.0)
    return R - math.tanh(kappa * R) / kappa


@pytest.mark.parametrize("V0", [0.5, 4.0, 20.0])
@pytest.mark.parametrize("R", [0.5, 1.0])
def test_square_well_scattering_length(V0, R):
    sol = solve_scattering(RadialPotential(kind="square-well", V0=V0, R=R))
    assert sol.a == pytest.approx(square_well_exact(V0, R), rel=1e-8)


def test_scattering_length_below_born():
    for kind, V0, R in (("square-well", 4.0, 1.0),
                        ("truncated-gaussian", 7.0, 1.4),
                        ("square-well", 0.05, 0.7)):
        pot = RadialPotential(kind=kind, V0=V0, R=R)
        sol = solve_scattering(pot)
        assert 0.0 < sol.a <= born_length(pot)


def test_weak_potential_approaches_born():
    pot = RadialPotential(kind="square-well", V0=1e-4, R=1.0)
    sol = solve_scattering(pot)
    assert sol.a == pytest.approx(born_length(pot), rel=1e-3)


def test_integral_route_matches_matching_route():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=4.0,
                                           R=1.0))
    assert scattering_length_from_integral(sol) == pytest.approx(sol.a,
                                                                 rel=1e-6)


def test_outer_profile_is_linear():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=4.0,
                                           R=1.0))
    outer = sol.r_grid >= 1.2
    assert np.allclose(sol.u_profile[outer], sol.r_grid[outer] - sol.a,
                       atol=1e-9)


def test_tabulated_round_trip():
    r = np.linspace(0.0, 1.0, 201)
    doc = {"kind": "tabulated", "R": 1.0,
           "samples": [[float(x), 4.0] for x in r]}
    tab = RadialPotential.from_json(json.dumps(doc))
    ref = RadialPotential(kind="square-well", V0=4.0, R=1.0)
    assert solve_scattering(tab).a == pytest.approx(solve_scattering(ref).a,
                                                    rel=1e-6)


def test_potential_validation():
    with pytest.raises(ValueError):
        RadialPotential(kind="square-well", V0=-1.0, R=1.0)
    with pytest.raises(ValueError):
        RadialPotential(kind="hard-sphere", V0=1.0, R=1.0)
    with pytest.raises(ValueError):
        RadialPotential(kind="tabulated", R=1.0, samples=[])


def test_fourier_v_zero_mode_is_volume_integral():
    pot = RadialPotential(kind="square-well", V0=0.4, R=1.0)
    want = 0.4 * (4.0 * math.pi / 3.0)
    assert float(fourier_V(pot, 0.0)) == pytest.approx(want, rel=1e-12)
    # vectorized call matches scalar calls
    s = np.array([0.0, 0.7, 1.3])
    vec = fourier_V(pot, s)
    for i, si in enumerate(s):
        assert vec[i] == pytest.approx(float(fourier_V(pot, float(si))))


@pytest.mark.parametrize("V0,R", [(4.0, 1.0), (0.4, 1.3), (30.0, 0.7)])
def test_square_well_fourier_v_against_mpmath(V0, R):
    """The series below sR = 0.3 is exact to rounding; above it the closed
    form is kept bit for bit and loses only its cancellation, which grows
    like 1/(sR)^2."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    pot = RadialPotential(kind="square-well", V0=V0, R=R)
    x = np.concatenate([np.geomspace(1e-12, 2.0, 400),
                        [0.3, np.nextafter(0.3, 0.0), np.nextafter(0.3, 1.0)]])
    s = x / R
    got = fourier_V(pot, s)
    closed = 4.0 * np.pi * V0 * (np.sin(s * R) - s * R * np.cos(s * R)) / s ** 3
    for si, gi, ci in zip(s, got, closed):
        xm = mpmath.mpf(float(si)) * R
        ref = 4 * mpmath.pi * V0 * R ** 3 * (mpmath.sin(xm) - xm * mpmath.cos(xm)) / xm ** 3
        err = float(abs((gi - ref) / ref))
        xr = float(si) * R
        if xr <= 0.3:
            assert err <= 1e-15
        else:
            assert gi == ci
            assert err <= 1e-15 * max(1.0, xr ** -2)


def test_fourier_vf_anchors():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=4.0,
                                           R=1.0))
    assert float(fourier_Vf(sol, 0.0)) == pytest.approx(
        8.0 * math.pi * sol.a, rel=1e-6)
    # 1/s^2 decay sets in beyond the potential scale
    hi = float(fourier_Vf(sol, 40.0))
    assert abs(hi) < 0.05 * 8.0 * math.pi * sol.a


@pytest.mark.parametrize("n", [3, 4, 9, 10, 4001, 4000])
@pytest.mark.parametrize("uniform", [True, False])
def test_simpson_weights_match_scipy(n, uniform):
    """Both node parities, even and uneven spacing."""
    from scipy.integrate import simpson

    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 1.3, n) if uniform else np.sort(rng.uniform(0.0, 2.0, n))
    for y in (np.cos(3.0 * x) + x ** 2, x ** 3 - x):
        want = simpson(y, x=x)
        assert abs(_simpson_weights(x) @ y - want) <= 1e-14 * np.abs(y).max() * (x[-1] - x[0])


@pytest.mark.parametrize("kind,V0,R", [("square-well", 4.0, 1.0),
                                       ("truncated-gaussian", 30.0, 1.2)])
def test_fourier_vf_matches_scipy_simpson(kind, V0, R):
    from scipy.integrate import simpson

    sol = solve_scattering(RadialPotential(kind=kind, V0=V0, R=R))
    s = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 300)])
    mask = sol.r_grid <= R
    r = sol.r_grid[mask]
    w = sol.potential(r) * sol.u_profile[mask] * r
    want = simpson(4.0 * np.pi * w[None, :] * np.sinc(s[:, None] * r[None, :] / np.pi),
                   x=r, axis=1)
    assert np.abs(fourier_Vf(sol, s) - want).max() <= 1e-14 * np.abs(want).max()


def test_periodize_phi_refuses_small_box():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=4.0,
                                           R=1.0))
    with pytest.raises(ValueError):
        periodize_phi(sol, L=1.9)


def test_periodized_coefficients_reflection_symmetric():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=0.4,
                                           R=1.0))
    psf = periodize_phi(sol, L=2.0 * math.pi, n_max=6)
    for n, c in psf.coefficients.items():
        m = (-n[0], -n[1], -n[2])
        assert psf.coefficients[m] == pytest.approx(c, rel=1e-12)


def test_periodized_coefficients_lazy_contract():
    """Values are radial, zero off the cube and at the origin, and the
    full-cube view, coeff and real_space all read the same numbers."""
    sol = solve_scattering(RadialPotential(kind="square-well", V0=0.4,
                                           R=1.0))
    psf = periodize_phi(sol, L=2.0 * math.pi, n_max=6)
    assert not psf.cutoff_applied
    assert psf.coeff((0, 0, 0)) == 0.0 and psf.coeff((7, 0, 0)) == 0.0
    # at L = 2 pi the momentum of n = (1, 0, 0) is 1
    assert psf.coeff((1, 0, 0)) == pytest.approx(fourier_Vf(sol, 1.0) / 2.0,
                                                 rel=1e-14)
    assert psf.coeff((3, -1, 2)) == psf.coefficients[(1, 2, -3)] != 0.0
    assert len(psf.coefficients) == 13 ** 3
    assert (7, 0, 0) not in psf.coefficients
    _, vals = psf.real_space()
    assert vals[0, 0, 0] == pytest.approx(
        sum(psf.coefficients.values()) / psf.L ** 3, rel=1e-12)


def test_lambda_shift_broadcasts():
    r = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    p = np.array([0.0, 2.0, 0.0])
    got = lambda_shift(r, p)
    assert got == pytest.approx([4.0, 4.0])


def test_eta_refuses_outside_pauli_region_at_zero_epsilon():
    eta = EtaFunction(a=0.3, epsilon=0.0, kF_up=1.0, kF_down=1.0)
    r = np.array([0.9, 0.0, 0.0])
    # both excitations fall deeper into their balls: dispersion negative
    with pytest.raises(ValueError):
        eta.value(r, -r, np.array([-0.5, 0.0, 0.0]))
    ok = eta.value(np.zeros(3), np.zeros(3), np.array([3.0, 0.0, 0.0]))
    assert ok == pytest.approx(8.0 * math.pi * 0.3 / 18.0)


def test_eta_epsilon_regularizes_everywhere():
    eta = EtaFunction(a=0.3, epsilon=0.05, kF_up=1.0, kF_down=1.0)
    val = eta.value(np.zeros(3), np.zeros(3), np.array([0.5, 0.0, 0.0]))
    assert math.isfinite(val) and val > 0.0


def test_bg_reduces_to_free_scattering_at_zero_kf():
    """With empty Fermi seas the in-medium equation is the zero-energy
    scattering problem; compare the momentum profiles. Measured: 8.8e-7
    (square well), 2.8e-13 (truncated Gaussian; its bound sits above the
    Picard stopping tolerance 1e-11), 1.1e-8 (tabulated, kinks at its
    samples)."""
    tabulated = RadialPotential(kind="tabulated", R=1.0, samples=(
        (0.0, 5.0), (0.3, 4.0), (0.7, 1.0), (0.9, 0.5), (1.0, 0.2)))
    for pot, tol in ((RadialPotential(kind="square-well", V0=4.0, R=1.0), 3e-6),
                     (RadialPotential(kind="truncated-gaussian", V0=30.0,
                                      R=1.2), 1e-10),
                     (tabulated, 5e-8)):
        free = solve_scattering(pot)
        sol = bethe_goldstone_solve(pot, 0.0, 0.0)
        phi_free = fourier_Vf(free, sol.nodes) / (2.0 * sol.nodes ** 2)
        scale = float(np.max(np.abs(phi_free)))
        assert np.max(np.abs(sol.phi - phi_free)) <= tol * scale, pot.kind


@pytest.mark.parametrize("V0,R,kf,q_max", [(4.0, 1.0, 0.0, 80.0),
                                           (300.0, 0.9, 0.2, 80.0 / 0.9),
                                           (2.0, 1.1, 0.5, 200.0)])
def test_bg_radial_kernel_matches_angle_quadrature(V0, R, kf, q_max):
    """The exact angle integral of the radial kernel against a 512-node
    Gauss rule in mu over the closed-form square-well transform, written
    as 4 pi V0 R^3 j1(sR)/(sR), which does not cancel at small s."""
    from scipy.special import spherical_jn

    def transform(s):
        x = np.maximum(s * R, 1e-300)
        return 4.0 * np.pi * V0 * R ** 3 * spherical_jn(1, x) / x

    pot = RadialPotential(kind="square-well", V0=V0, R=R)
    q, M, FV = _bg_radial_matrix(pot, kf, 240, q_max)
    rows = np.r_[0:len(q):10, len(q) - 1]
    xm, wm = np.polynomial.legendre.leggauss(512)
    p, qq = q[rows, None, None], q[None, :, None]
    dist = np.sqrt(np.maximum(p * p + qq * qq - 2.0 * p * qq * xm, 0.0))
    edges = kf + (q_max - kf) * np.array([0.0, 0.03, 0.1, 0.3, 0.6, 1.0])
    xg, wg = np.polynomial.legendre.leggauss(48)
    wq = (0.5 * np.diff(edges)[:, None] * wg).ravel()
    want = (transform(dist) @ wm) * wq / (8.0 * np.pi ** 2)
    assert np.max(np.abs(M[rows] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(FV - transform(q))) <= 1e-12 * np.max(np.abs(FV))


def test_bg_pauli_blocking_raises_amplitude():
    # blocking low momenta removes screening, so G at the origin grows
    pot = RadialPotential(kind="square-well", V0=4.0, R=1.0)
    sol0 = bethe_goldstone_solve(pot, 0.0, 0.0)
    sol1 = bethe_goldstone_solve(pot, 0.9, 0.9)
    assert sol1.G[0] > sol0.G[0]
    assert sol1.residual < 1e-9
