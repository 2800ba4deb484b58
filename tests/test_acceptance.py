"""Acceptance scorecard: ten headline checks, each asserting its stated
tolerance and runtime budget and printing one summary line. Run with
-rA (or -s) to see the lines for passing criteria too."""

import math
import time

import numpy as np
import pytest

from hyfermi import fock
from hyfermi.cutoffs import CutoffConfig
from hyfermi.hyformula import F_closed, FermiParams
from hyfermi.potentials import (
    EtaFunction,
    RadialPotential,
    bethe_goldstone_solve,
    born_length,
    fourier_Vf,
    periodize_phi,
    solve_scattering,
)
from hyfermi.quadrature import (
    F_quadrature,
    gap_cutoff_study,
    singular_integral_bound,
)

from references import (
    ode_check_f,
    p_integral_linear,
    p_integral_quadratic,
    pv_linear_epsilon,
    pv_quadratic_epsilon,
)

LN2 = math.log(2.0)


def report(num, budget_s, elapsed, detail):
    line = (f"criterion {num:2d} [PASS] {detail} "
            f"({elapsed:.3f}s of {budget_s:g}s budget)")
    print(line)
    assert elapsed <= budget_s, line


def test_criterion_01_closed_form_anchor():
    anchor = (48.0 / 35.0) * (11.0 - 2.0 * LN2) \
        * (6.0 * math.pi ** 2) ** (1.0 / 3.0)
    F_closed(1.0)  # warm the import path before timing
    t0 = time.perf_counter()
    got = F_closed(1.0)
    elapsed = time.perf_counter() - t0
    rel = abs(got - anchor) / anchor
    assert rel <= 1e-12
    report(1, 1e-3, elapsed, f"F_closed(1) = {got!r}, rel err {rel:.2e}")


def test_criterion_02_symmetric_case_identity():
    a, rho = 0.37, 1e-3
    t0 = time.perf_counter()
    route1 = a * a * (rho / 2.0) ** (7.0 / 3.0) * F_closed(1.0)
    route2 = (4.0 / 35.0) * (11.0 - 2.0 * LN2) * (9.0 * math.pi) ** (2.0 / 3.0) \
        * a * a * rho ** (7.0 / 3.0)
    elapsed = time.perf_counter() - t0
    rel = abs(route1 - route2) / abs(route2)
    assert rel <= 1e-12
    report(2, 1e-3, elapsed, f"two codings differ by {rel:.2e}")


def test_criterion_03_symmetry_law():
    grid = np.linspace(0.05, 4.0, 40)
    F_closed(0.05)
    t0 = time.perf_counter()
    worst = max(abs(F_closed(1.0 / x) - x ** (-7.0 / 3.0) * F_closed(x))
                / (x ** (-7.0 / 3.0) * F_closed(x)) for x in map(float, grid))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    report(3, 1e-2, elapsed, f"40-point reflection law, worst {worst:.2e}")


def test_criterion_04_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for x in (0.25, 0.5, 1.0):
        res = F_quadrature(x)
        rel = abs(res.value - F_closed(x)) / F_closed(x)
        worst = max(worst, rel)
        assert not res.flagged
        assert rel <= 5e-3
    elapsed = time.perf_counter() - t0
    report(4, 0.1, elapsed, f"quadrature vs closed form, worst {worst:.2e}")


def test_criterion_05_ode_and_principal_value():
    # warm the import path before timing: the first call imports
    # scipy.integrate, ~0.5 s against a ~4 ms body
    pv_quadratic_epsilon(3.0, 1.0, 1e-4)
    pv_linear_epsilon(1.5, 0.7, 1e-4)
    t0 = time.perf_counter()
    res = [ode_check_f(x, h=1e-4) for x in (0.5, 2.0)]
    assert max(res) <= 1e-4

    def extrapolated(oracle, a, b):
        v1, v2 = oracle(a, b, 1e-4), oracle(a, b, 2e-4)
        return 2.0 * v1 - v2

    worst_pv = 0.0
    for a, b in ((3.0, 1.0), (2.5, 0.5)):
        diff = abs(p_integral_quadratic(a, b)
                   - extrapolated(pv_quadratic_epsilon, a, b))
        worst_pv = max(worst_pv, diff)
    for a, b in ((1.5, 0.7), (2.0, -0.4)):
        diff = abs(p_integral_linear(a, b)
                   - extrapolated(pv_linear_epsilon, a, b))
        worst_pv = max(worst_pv, diff)
    assert worst_pv <= 1e-4
    elapsed = time.perf_counter() - t0
    report(5, 0.2, elapsed,
           f"ode residual {max(res):.2e}, pv mismatch {worst_pv:.2e}")


def test_criterion_06_scattering_solver():
    t0 = time.perf_counter()
    worst = 0.0
    for v0 in (0.5, 4.0, 20.0):
        for r in (0.5, 1.0):
            pot = RadialPotential(kind="square-well", V0=v0, R=r)
            sol = solve_scattering(pot)
            kappa = math.sqrt(v0 / 2.0)
            exact = r - math.tanh(kappa * r) / kappa
            rel = abs(sol.a - exact) / exact
            worst = max(worst, rel)
            assert rel <= 1e-8
            assert sol.a <= born_length(pot)
    elapsed = time.perf_counter() - t0
    report(6, 0.1, elapsed, f"square-well grid, worst rel {worst:.2e}")


def test_criterion_07_bethe_goldstone_degeneration():
    t0 = time.perf_counter()
    pot = RadialPotential(kind="square-well", V0=4.0, R=1.0)
    free = solve_scattering(pot)
    sol = bethe_goldstone_solve(pot, 0.0, 0.0)
    phi_free = fourier_Vf(free, sol.nodes) / (2.0 * sol.nodes ** 2)
    worst = float(np.max(np.abs(sol.phi - phi_free))
                  / np.max(np.abs(phi_free)))
    assert worst <= 1e-4
    elapsed = time.perf_counter() - t0
    report(7, 1.0, elapsed, f"empty-sea solver vs free profile {worst:.2e}")


def test_criterion_08_fock_exactness():
    t0 = time.perf_counter()
    box = 2.0 * math.pi
    lat = fock.build_lattice(box, 1.01, 0.5, 0.5)
    basis = fock.build_basis(lat)
    assert len(basis.mode_order) == 14
    pot = RadialPotential(kind="square-well", V0=0.4, R=1.0)
    vhat = fock.vhat_from_potential(lat, pot)
    h = fock.build_hamiltonian(lat, basis, vhat)
    terms = fock.build_corr_terms(lat, basis, vhat)

    # CAR on the physics sector: {a_j, a*_j} = 1 through the sectors with
    # one particle fewer and one more of the mode's spin
    src = fock.sector(basis, lat.N_up, lat.N_down)
    car = 0.0
    for j, (_, spin) in enumerate(basis.mode_order):
        counts = [lat.N_up, lat.N_down]
        counts[spin] -= 1
        lower = fock.sector(basis, *counts)
        counts[spin] += 2
        upper = fock.sector(basis, *counts)
        a_op = fock.make_operator(basis, [(1.0, [(j, False)])])
        c_op = fock.make_operator(basis, [(1.0, [(j, True)])])
        anti = (a_op.on(upper, src) @ c_op.on(src, upper)
                + c_op.on(lower, src) @ a_op.on(src, lower) - np.eye(src.size))
        car = max(car, float(np.abs(anti).max()))
    # the particle-hole transform: a signed permutation onto the sector
    image, sign = fock.ph_transform(lat, basis, fock.ph_sector(lat, basis, 0, 0))
    r = np.zeros((src.size, src.size))
    r[np.searchsorted(src, image), np.arange(src.size)] = sign
    unitarity = float(np.abs(r.T @ r - np.eye(src.size)).max())
    rep = fock.corr_identity_report(lat, basis, h, terms)
    identity = max(rep.values())
    assert car <= 1e-10 and unitarity <= 1e-10 and identity <= 1e-10

    sol = solve_scattering(pot)
    cut = CutoffConfig(rho=0.225 ** 4.5)
    b1 = fock.build_generator(lat, basis, "B1",
                              phi=periodize_phi(sol, box, cutoff=cut))
    b2 = fock.build_generator(lat, basis, "B2",
                              eta=EtaFunction(a=sol.a, epsilon=cut.epsilon,
                                              kF_up=lat.kF_up,
                                              kF_down=lat.kF_down),
                              cutoff=cut)
    states, amp = fock.trial_state(basis, b1, b2, 0.4, 0.3)
    sector = max(abs(float(amp @ terms[k].on(states) @ amp))
                 for k in ("Q2_par", "Q3"))
    assert sector <= 1e-12

    e_ffg = fock.ffg_energy(lat, basis, h)
    e_ground = fock.ground_energy(lat, basis, h, lat.N_up, lat.N_down)
    for l1 in np.linspace(-0.5, 0.5, 5):
        for l2 in np.linspace(-0.5, 0.5, 5):
            e = e_ffg + fock.trial_energy(lat, basis, terms, b1, b2,
                                          float(l1), float(l2))
            assert e >= e_ground - 1e-10
    elapsed = time.perf_counter() - t0
    report(8, 0.3, elapsed,
           f"CAR {car:.1e}, unitarity {unitarity:.1e}, identity "
           f"{identity:.1e}, sector {sector:.1e}, 5x5 bound ok")


def test_criterion_09_gap_scaling_slope():
    t0 = time.perf_counter()
    params = FermiParams(rho_up=1e-3, rho_down=1e-3)
    cutoff = CutoffConfig(rho=1e-4)  # gamma 1/9, delta 16/63
    grid = np.geomspace(1e-4, 1e-2, 5)
    rows = gap_cutoff_study(params, cutoff, grid)
    slope = float(np.polyfit(np.log([r["rho"] for r in rows]),
                             np.log([r["diff"] for r in rows]), 1)[0])
    floor = 7.0 / 3.0 + min(cutoff.gamma, cutoff.delta) - 0.2
    assert slope >= floor
    elapsed = time.perf_counter() - t0
    report(9, 0.1, elapsed, f"decay slope {slope:.4f} >= {floor:.4f}")


def test_criterion_10_singular_boundedness():
    t0 = time.perf_counter()
    grid = [1e-3, 1e-2, 0.1, 0.5, 1.0]
    rows = singular_integral_bound(grid)
    for row in rows:
        assert math.isfinite(row["value"])
        assert not row["flagged"]
    assert rows[0]["value"] < rows[-1]["value"]
    elapsed = time.perf_counter() - t0
    report(10, 0.25, elapsed,
           f"bound finite on grid, S(1e-3) = {rows[0]['value']:.4g} < "
           f"S(1) = {rows[-1]['value']:.4g}")
