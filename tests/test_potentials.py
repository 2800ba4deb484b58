"""Scattering solver, Fourier transforms, periodization, pair amplitudes,
and the in-medium scattering equation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from hyfermi import potentials
from hyfermi.potentials import (
    EtaFunction,
    RadialPotential,
    _bg_radial_matrix,
    _radial_rule,
    _u_at,
    bethe_goldstone_solve,
    born_length,
    fourier_V,
    fourier_Vf,
    lambda_shift,
    periodize_phi,
    solve_scattering,
)

from references import scattering_length_from_integral


def square_well_exact(V0, R):
    kappa = math.sqrt(V0 / 2.0)
    return R - math.tanh(kappa * R) / kappa


@pytest.mark.parametrize("V0", [0.5, 4.0, 20.0])
@pytest.mark.parametrize("R", [0.5, 1.0])
def test_square_well_scattering_length(V0, R):
    sol = solve_scattering(RadialPotential(kind="square-well", V0=V0, R=R))
    assert sol.a == pytest.approx(square_well_exact(V0, R), rel=1e-8)


@pytest.mark.parametrize("V0", [1e-2, 0.1, 1.0, 4.0, 30.0, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("R", [0.5, 1.0])
def test_square_well_scattering_length_to_rounding(V0, R):
    """RK4's step map is a polynomial in the constant matrix of a square
    well, so it keeps the exact solution's growing mode: only rounding
    separates a from R - tanh(kR)/k, 1e-12 relative. a = rm - u/u' rounds
    at the scale of rm, which sets a floor of a few eps * rm: it decides
    only for the weak narrow well V0 = 1e-2, R = 0.5, where a/rm = 2.8e-4
    and a is 1.2e-12 relative off (the step-by-step march read 7.6e-12)."""
    sol = solve_scattering(RadialPotential(kind="square-well", V0=V0, R=R))
    exact = square_well_exact(V0, R)
    floor = 4.0 * np.finfo(float).eps * sol.matching_radius
    assert abs(sol.a - exact) <= max(1e-12 * exact, floor)


def _rk4_loop(q_half, u0, w0, h):
    """The sequential RK4 march that _rk4_linear's scan replaced, kept as
    its reference: one step at a time on (u, u')."""
    n = (len(q_half) - 1) // 2
    u = np.empty(n + 1)
    u[0] = u0
    w = w0
    for i in range(n):
        qa, qm, qb = q_half[2 * i], q_half[2 * i + 1], q_half[2 * i + 2]
        k1u, k1w = w, qa * u[i]
        k2u, k2w = w + 0.5 * h * k1w, qm * (u[i] + 0.5 * h * k1u)
        k3u, k3w = w + 0.5 * h * k2w, qm * (u[i] + 0.5 * h * k2u)
        k4u, k4w = w + h * k3w, qb * (u[i] + h * k3u)
        u[i + 1] = u[i] + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return u, w


_JUMP = ((0.0, 5.0), (0.3, 4.0), (0.7, 1.0), (0.9, 0.5))


_MARCH_CASES = {
    **{f"square-well-{V0:g}": RadialPotential(kind="square-well", V0=V0, R=1.0)
       for V0 in (1e-2, 4.0, 1e3, 1e5)},
    **{f"truncated-gaussian-{V0:g}": RadialPotential(kind="truncated-gaussian", V0=V0, R=1.3)
       for V0 in (0.1, 7.0, 1e3)},
    "tabulated-jump": RadialPotential(kind="tabulated", R=1.0, samples=_JUMP),
    "tabulated": RadialPotential(kind="tabulated", R=1.0,
                                 samples=((0.0, 5.0), (0.3, 4.0), (1.0, 0.0))),
}


@pytest.mark.parametrize("pot", _MARCH_CASES.values(), ids=_MARCH_CASES.keys())
def test_scan_matches_sequential_march(pot):
    """The scan and the step-by-step march take the same RK4 steps on the
    same grid; only the order of rounding differs. a = rm - u/u' is a
    difference, and where a << rm (weak wells) both round at the scale of
    rm: the loop alone is 1.6e-12 relative off the closed form at V0 =
    1e-2, the scan 1.3e-13. So a is compared relative to rm."""
    sol = solve_scattering(pot)
    edge, rm = pot.support, sol.matching_radius
    q_half = 0.5 * pot(np.linspace(0.0, edge, 2 * potentials._N_STEPS + 1))
    u_in, w_end = _rk4_loop(q_half, 0.0, 1.0, edge / potentials._N_STEPS)
    r_out = sol.r_grid[sol.r_grid > edge]
    u_ref = np.concatenate([u_in, u_in[-1] + w_end * (r_out - edge)]) / w_end
    np.testing.assert_allclose(sol.u_profile, u_ref, rtol=1e-12, atol=0.0)
    assert abs(sol.a - (rm - u_ref[-1])) <= 1e-12 * rm
    assert sol.slope == pytest.approx(w_end, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("V0", [1e-2, 4.0, 1e3, 1e5])
def test_a_error_bounds_square_well_error(V0):
    sol = solve_scattering(RadialPotential(kind="square-well", V0=V0, R=1.0))
    # rounding floor: a few units in the last place of the matching radius
    floor = 8.0 * np.finfo(float).eps * sol.matching_radius
    assert 0.0 <= sol.a_error
    assert abs(sol.a - square_well_exact(V0, 1.0)) <= sol.a_error + floor


@pytest.mark.parametrize("V0", [1e3, 1e5])
def test_a_error_tracks_a_finer_grid(V0, monkeypatch):
    """On a smooth well the truncation error of a stands above rounding;
    step doubling estimates it to within a factor 1.5 of the distance to a
    solve on a 16 times finer grid."""
    pot = RadialPotential(kind="truncated-gaussian", V0=V0, R=1.3)
    sol = solve_scattering(pot)
    monkeypatch.setattr(potentials, "_N_STEPS", 16 * potentials._N_STEPS)
    err = abs(sol.a - solve_scattering(pot).a)
    assert err / 1.5 <= sol.a_error <= 1.5 * err


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


def test_tabulated_jump_at_last_sample_solves():
    """V jumps from 0.5 to 0 at the last sample, inside R: the grid ends at
    the jump, so the solve matches the same samples with R at the jump."""
    samples = ((0.0, 5.0), (0.3, 4.0), (0.7, 1.0), (0.9, 0.5))
    jump = RadialPotential(kind="tabulated", R=1.0, samples=samples)
    ref = RadialPotential(kind="tabulated", R=0.9, samples=samples)
    assert jump.support == ref.support == ref.R == 0.9
    sol, sol_ref = solve_scattering(jump), solve_scattering(ref)
    assert sol.a == pytest.approx(sol_ref.a, rel=1e-14)
    assert scattering_length_from_integral(sol) == pytest.approx(sol.a, rel=1e-6)
    s = np.linspace(0.0, 40.0, 81)
    assert np.array_equal(fourier_Vf(sol, s), fourier_Vf(sol_ref, s))


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
    """The Gauss panels are within 1e-15 relative of 4 pi V0 R^3 (sin x -
    x cos x) / x^3, x = sR, at every x from 1e-12 to 2, where the closed
    form itself would cancel."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    pot = RadialPotential(kind="square-well", V0=V0, R=R)
    x = np.concatenate([np.geomspace(1e-12, 2.0, 400),
                        [0.3, np.nextafter(0.3, 0.0), np.nextafter(0.3, 1.0)]])
    s = x / R
    for si, gi in zip(s, fourier_V(pot, s)):
        xm = mpmath.mpf(float(si)) * R
        ref = 4 * mpmath.pi * V0 * R ** 3 * (mpmath.sin(xm) - xm * mpmath.cos(xm)) / xm ** 3
        assert float(abs((gi - ref) / ref)) <= 1e-15


def test_fourier_vf_anchors():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=4.0,
                                           R=1.0))
    assert float(fourier_Vf(sol, 0.0)) == pytest.approx(
        8.0 * math.pi * sol.a, rel=1e-6)
    # 1/s^2 decay sets in beyond the potential scale
    hi = float(fourier_Vf(sol, 40.0))
    assert abs(hi) < 0.05 * 8.0 * math.pi * sol.a


@pytest.mark.parametrize("V0,tol", [(1e-2, 1e-14), (4.0, 1e-14), (1e3, 2e-11)])
def test_fourier_vf_matches_square_well_closed_form(V0, tol):
    """Against 4 pi V0/(s(k^2 + s^2)) (sin sR - (s/k) tanh(kR) cos sR),
    k^2 = V0/2, in mpmath, relative to the largest |value|. At V0 = 1e3
    the RK4 error of u itself (k h = 0.006) sets the floor."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    R = 1.0
    sol = solve_scattering(RadialPotential(kind="square-well", V0=V0, R=R))
    s = np.geomspace(1e-3, 100.0, 200)
    k = mpmath.sqrt(mpmath.mpf(V0) / 2)
    want = np.array([float(4 * mpmath.pi * V0 / (x * (k ** 2 + x ** 2))
                           * (mpmath.sin(x * R) - (x / k) * mpmath.tanh(k * R) * mpmath.cos(x * R)))
                     for x in map(mpmath.mpf, s)])
    assert np.abs(fourier_Vf(sol, s) - want).max() <= tol * np.abs(want).max()


def test_u_at_reads_the_profile_on_the_grid_and_the_exact_u_between():
    """On the solve's grid nodes _u_at is u_profile bit for bit; on the
    Gauss nodes of _radial_rule a square well's u is sinh(kr)/(k cosh kR)."""
    pot = RadialPotential(kind="square-well", V0=4.0, R=1.0)
    sol = solve_scattering(pot)
    inside = sol.r_grid <= pot.support
    assert np.array_equal(_u_at(sol, sol.r_grid[inside]), sol.u_profile[inside])
    r, _ = _radial_rule(pot, 100.0)
    k = math.sqrt(2.0)
    want = np.sinh(k * r) / (k * math.cosh(k))
    assert np.abs(_u_at(sol, r) / want - 1.0).max() <= 1e-13
    assert np.all(sol.du_profile[~inside] == 1.0)


def test_periodize_phi_refuses_small_box():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=4.0,
                                           R=1.0))
    with pytest.raises(ValueError):
        periodize_phi(sol, L=1.9)


def phi_hat_cube(sol, L, n_max, cutoff=None):
    """The cube |n_i| <= n_max as an array of triples, and phi-hat on it
    straight from fourier_Vf / (2 s^2) (times chi_greater with a cutoff),
    transformed once per distinct |n|^2, with the zero mode at 0."""
    axis = np.arange(-n_max, n_max + 1)
    cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    n2, inverse = np.unique(np.sum(cube * cube, axis=1), return_inverse=True)
    s = (2.0 * math.pi / L) * np.sqrt(n2[1:])
    vals = fourier_Vf(sol, s) / (2.0 * s ** 2)
    if cutoff is not None:
        vals = vals * cutoff.chi_greater(s)
    return cube, np.concatenate(([0.0], vals))[inverse]


def test_periodized_coefficients_reflection_symmetric():
    sol = solve_scattering(RadialPotential(kind="square-well", V0=0.4,
                                           R=1.0))
    psf = periodize_phi(sol, L=2.0 * math.pi)
    cube, want = phi_hat_cube(sol, 2.0 * math.pi, 6)
    got = psf.coeffs(cube)
    assert np.array_equal(psf.coeffs(-cube), got)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_periodized_coefficients_lazy_contract():
    """Values are radial and zero at the origin, and one batch over a
    cube of triples reads the fourier_Vf reference."""
    sol = solve_scattering(RadialPotential(kind="square-well", V0=0.4,
                                           R=1.0))
    psf = periodize_phi(sol, L=2.0 * math.pi)
    zero, one, a, b = psf.coeffs([(0, 0, 0), (1, 0, 0), (3, -1, 2), (1, 2, -3)])
    assert zero == 0.0
    # at L = 2 pi the momentum of n = (1, 0, 0) is 1
    assert one == pytest.approx(fourier_Vf(sol, 1.0) / 2.0, rel=1e-14)
    assert a == b != 0.0
    cube, want = phi_hat_cube(sol, 2.0 * math.pi, 6)
    assert len(cube) == 13 ** 3
    assert np.allclose(psf.coeffs(cube), want, rtol=1e-14, atol=0.0)


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
    q, M, FV = _bg_radial_matrix(pot, kf, q_max)
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


@pytest.mark.parametrize("kf_up, kf_down", [(0.0, 0.0), (0.9, 0.4)])
def test_bg_solution_keeps_only_nodes_and_g(kf_up, kf_down):
    """A solution stores q_max and G, not the nodes: they are rebuilt, bit
    for bit, as the solver's grid, and phi and the pair dispersion are
    derived from them; the nodes lie above the Pauli floor, so the
    dispersion is positive and phi finite."""
    pot = RadialPotential(kind="square-well", V0=4.0, R=1.0)
    sol = bethe_goldstone_solve(pot, kf_up, kf_down)
    assert [f.name for f in dataclasses.fields(sol)] == [
        "mode", "q_max", "G", "residual", "kF_up", "kF_down"]
    grid, _, _ = _bg_radial_matrix(pot, max(kf_up, kf_down), 80.0)
    assert sol.q_max == 80.0
    assert sol.nodes.tobytes() == grid.tobytes()
    assert np.all(sol.nodes > max(kf_up, kf_down))
    lam_p = 2.0 * sol.nodes ** 2
    old_phi = np.where(lam_p > 0.0, sol.G / lam_p, np.nan)
    assert sol.denominators.tobytes() == lam_p.tobytes()
    assert sol.phi.tobytes() == old_phi.tobytes()


@pytest.mark.parametrize("kf_up, kf_down", [(80.0, 0.0), (0.0, 95.0),
                                            (math.inf, 0.0), (math.nan, 0.0),
                                            (-1.0, -1.0)])
def test_bg_solve_refuses_a_floor_off_the_grid(kf_up, kf_down):
    """The nodes run from the Pauli floor up to 80/R; a floor at or above
    that top, or not a nonnegative number, is refused before any work."""
    pot = RadialPotential(kind="square-well", V0=4.0, R=1.0)
    with pytest.raises(ValueError, match=r"Pauli floor .* q_max = 80/R = 80\.0"):
        bethe_goldstone_solve(pot, kf_up, kf_down)


def test_bg_solve_matches_lu():
    """A strong well, far from I + M = I: the numpy solve gives the G of
    an LU solve."""
    from scipy.linalg import lu_factor, lu_solve

    pot = RadialPotential(kind="square-well", V0=30.0, R=1.0)
    sol = bethe_goldstone_solve(pot, 0.1, 0.1)
    _, M, FV = _bg_radial_matrix(pot, 0.1, 80.0)
    want = lu_solve(lu_factor(np.eye(len(FV)) + M), FV)
    assert np.max(np.abs(sol.G - want)) <= 1e-12 * np.max(np.abs(want))


def _linear_moment(a, b, va, vb):
    # integral of (linear V from va at a to vb at b) * r^2 over [a, b]
    beta = (vb - va) / (b - a)
    alpha = va - beta * a
    return alpha * (b ** 3 - a ** 3) / 3.0 + beta * (b ** 4 - a ** 4) / 4.0


def test_tabulated_born_length_starts_at_zero():
    """Below the first sample V holds its first value, as every solver
    sees it through __call__; the Born length counts that core too."""
    flat = RadialPotential(kind="tabulated", R=1.0,
                           samples=((0.6, 2.0), (1.0, 2.0)))
    assert float(flat(0.3)) == 2.0
    assert born_length(flat) == pytest.approx(0.5 * 2.0 / 3.0, rel=1e-14)
    sloped = RadialPotential(kind="tabulated", R=1.2,
                             samples=((0.3, 3.0), (0.7, 1.0), (0.9, 0.0)))
    want = (_linear_moment(0.0, 0.3, 3.0, 3.0)
            + _linear_moment(0.3, 0.7, 3.0, 1.0)
            + _linear_moment(0.7, 0.9, 1.0, 0.0))
    assert born_length(sloped) == pytest.approx(0.5 * want, rel=1e-14)
    from_zero = RadialPotential(kind="tabulated", R=1.0,
                                samples=((0.0, 3.0), (0.7, 1.0), (0.9, 0.0)))
    want = (_linear_moment(0.0, 0.7, 3.0, 1.0)
            + _linear_moment(0.7, 0.9, 1.0, 0.0))
    assert born_length(from_zero) == pytest.approx(0.5 * want, rel=1e-14)


def test_tabulated_born_length_counts_the_core():
    pot = RadialPotential(kind="tabulated", R=1.0,
                          samples=((0.6, 2.0), (1.0, 2.0)))
    assert born_length(pot) == pytest.approx(1.0 / 3.0, rel=1e-14)


_NON_SQUARE_POTENTIALS = [
    RadialPotential(kind="truncated-gaussian", V0=30.0, R=1.2),
    RadialPotential(kind="tabulated", R=1.1,
                    samples=((0.2, 3.0), (0.5, 2.5), (0.8, 0.5), (1.0, 0.0))),
]


# a tabulated potential that jumps to 0 at its last sample, inside R
_JUMP_POTENTIAL = RadialPotential(kind="tabulated", R=1.0,
                                  samples=((0.0, 5.0), (0.3, 4.0), (0.7, 1.0), (0.9, 0.5)))


@pytest.mark.parametrize("pot", [*_NON_SQUARE_POTENTIALS, _JUMP_POTENTIAL],
                         ids=["truncated-gaussian", "tabulated", "tabulated-jump"])
def test_fourier_v_matches_gauss_panels(pot):
    """A reference exact for piecewise-linear V: 24-node Gauss-Legendre
    panels on 400 edges plus every sample radius, where V may kink or jump."""
    s = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 300)])
    edges = np.linspace(0.0, pot.R, 401)
    if pot.samples:
        edges = np.union1d(edges, [r for r, _ in pot.samples])
    x, wg = np.polynomial.legendre.leggauss(24)
    half = 0.5 * np.diff(edges)[:, None]
    r = (0.5 * (edges[:-1, None] + edges[1:, None]) + half * x).ravel()
    w = (half * wg).ravel() * pot(r) * r * r
    want = 4.0 * np.pi * (np.sinc(s[:, None] * r[None, :] / np.pi) @ w)
    assert np.abs(fourier_V(pot, s) - want).max() <= 1e-14 * np.abs(want).max()
    assert abs(fourier_V(pot, 0.0) - want[0]) <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("pot", _NON_SQUARE_POTENTIALS, ids=lambda p: p.kind)
def test_integral_route_matches_matching_route_to_rounding(pot):
    """Where V's kinks sit on grid nodes, the integral route to a agrees
    with the matching route to rounding."""
    sol = solve_scattering(pot)
    assert scattering_length_from_integral(sol) == pytest.approx(sol.a, rel=1e-14)


@pytest.mark.parametrize("pot", _NON_SQUARE_POTENTIALS, ids=lambda p: p.kind)
def test_fourier_vf_at_zero_is_8_pi_a(pot):
    """Where V's kinks sit on grid nodes, fourier_Vf at s = 0 is 8 pi a of
    the matching route to rounding."""
    sol = solve_scattering(pot)
    assert fourier_Vf(sol, 0.0) == pytest.approx(8.0 * math.pi * sol.a, rel=1e-14)


@pytest.mark.parametrize("V0,tol", [(1e-2, 1e-14), (4.0, 1e-14), (1e3, 2e-11)])
def test_scattering_length_from_integral_matches_closed_form(V0, tol):
    """The integral route against R - tanh(kR)/k, k^2 = V0/2, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    k = mpmath.sqrt(mpmath.mpf(V0) / 2)
    want = float(1 - mpmath.tanh(k) / k)
    sol = solve_scattering(RadialPotential(kind="square-well", V0=V0, R=1.0))
    assert abs(scattering_length_from_integral(sol) - want) <= tol * want


@pytest.mark.parametrize("kwargs", [
    {"kind": "square-well", "V0": float("nan")},
    {"kind": "square-well", "V0": float("inf")},
    {"kind": "truncated-gaussian", "V0": 1.0, "R": float("nan")},
    {"kind": "square-well", "V0": 1.0, "R": float("inf")},
    {"kind": "tabulated", "samples": ((0.2, float("nan")), (0.5, 1.0))},
    {"kind": "tabulated", "samples": ((float("nan"), 1.0), (0.5, 1.0))},
], ids=["V0-nan", "V0-inf", "R-nan", "R-inf", "sample-V-nan", "sample-r-nan"])
def test_potential_validation_refuses_non_finite(kwargs):
    with pytest.raises(ValueError):
        RadialPotential(**kwargs)


@pytest.mark.parametrize("source", [
    "/nonexistent/potential.json",
    '{"V0": 4.0, "R": 1.0}',
    '{"kind": "square-well", "V0": 4.0',
    '{"kind": "square-well", "V0": null}',
    '{"kind": "tabulated", "samples": [null, [0.5, 1.0]]}',
    '{"kind": "tabulated", "samples": [[0.2, 1.0, 3.0]]}',
    '{"kind": "square-well", "V0": NaN}',
    '{"kind": "square-well", "v0": 100, "r": 2}',
    '{"kind": "square-well", "V0": 4.0, "samples": [[0.5, 1.0]]}',
    '{"kind": "tabulated", "V0": 4.0, "samples": [[0.5, 1.0]]}',
], ids=["missing-file", "no-kind", "truncated", "V0-null",
        "sample-null", "sample-triple", "V0-NaN", "key-misspelt",
        "samples-on-square-well", "V0-on-tabulated"])
def test_from_json_refusals_are_value_errors(source):
    with pytest.raises(ValueError):
        RadialPotential.from_json(source)
