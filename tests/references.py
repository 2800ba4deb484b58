"""Test references: independent routes to quantities the library computes,
kept next to the tests because no command runs them.

- p_integral_quadratic, p_integral_linear: closed forms of two
  principal-value ball integrals, checked against the eps-smoothed
  oracles pv_quadratic_epsilon and pv_linear_epsilon (scipy's quad);
- ode_check_f: the residual of the second-order equation of f_aux, by
  nested centered differences, for any gauge A of f (f_gauged);
- scattering_length_from_integral: a as (1/2) * integral of V u r, the
  integral route beside the solve's matching route;
- g_full_balls: g(x, p) for p >= 2 as a tensor Gauss sum over both full
  balls, beside g_pointwise's exact t-integral and far-field series;
- q2_ud_from_pairs: the opposite-spin Q2 block rebuilt from products of
  pair operators, the second coding beside build_corr_terms.
"""

import math

import numpy as np

from hyfermi import fock
from hyfermi.hyformula import f_aux
from hyfermi.potentials import _radial_rule, _u_at


def p_integral_quadratic(a_coef, b_coef):
    """Closed form of the unit-ball principal value integral of
    1/(p^2 + a*p1 + b) for a^2 >= 4b."""
    a, b = float(a_coef), float(b_coef)
    if a * a < 4.0 * b:
        raise ValueError("requires a^2 >= 4b")
    d = math.sqrt(a * a - 4.0 * b)
    for arg in (b - 1.0 - d, b - 1.0 + d, b + 1.0 - abs(a), b + 1.0 + abs(a)):
        if arg == 0.0:
            raise ValueError("singularity on the integration boundary")
    out = 2.0 * math.pi
    if d > 0.0:
        out -= (math.pi / 2.0) * d * math.log(abs((b - 1.0 - d) / (b - 1.0 + d)))
    if abs(a) < 1e-12:
        # limit of the third term: log|(b+1-|a|)/(b+1+|a|)| ~ -2|a|/(b+1)
        out += (math.pi / 2.0) * (a * a - 2.0 * b - 2.0) * (-2.0 / (b + 1.0))
    else:
        out += (math.pi / 2.0) * ((a * a - 2.0 * b - 2.0) / abs(a)) \
            * math.log(abs((b + 1.0 - abs(a)) / (b + 1.0 + abs(a))))
    return out


def p_integral_linear(a_coef, b_coef):
    """Closed form of the unit-ball principal value integral of
    1/(a*p1 + b)."""
    a, b = float(a_coef), float(b_coef)
    if a == 0.0:
        raise ValueError("a must be nonzero")
    if abs(b) == abs(a):
        raise ValueError("singularity on the integration boundary")
    return 2.0 * math.pi * b / a ** 2 - (math.pi / abs(a) ** 3) \
        * (a * a - b * b) * math.log(abs((b - abs(a)) / (b + abs(a))))


def pv_quadratic_epsilon(a_coef, b_coef, eps):
    """Real part of the eps-smoothed ball integral of
    1/(p^2 + a*p1 + b + i*eps); radial-angular reduction, one smooth 1D
    quadrature. Extrapolate eps -> 0 to recover the principal value."""
    from scipy.integrate import quad

    a, b = float(a_coef), float(b_coef)
    if a == 0.0:
        raise ValueError("reduction needs a != 0")

    def integrand(r):
        num = (r * r + b + a * r) ** 2 + eps * eps
        den = (r * r + b - a * r) ** 2 + eps * eps
        return r * math.log(num / den)

    pts = []
    disc = a * a - 4.0 * b
    if disc >= 0.0:
        for root in ((abs(a) - math.sqrt(disc)) / 2.0,
                     (abs(a) + math.sqrt(disc)) / 2.0):
            if 0.0 < root < 1.0:
                pts.append(root)
    val, _ = quad(integrand, 0.0, 1.0, points=pts or None,
                  limit=400, epsabs=1e-13, epsrel=1e-12)
    return (math.pi / a) * val


def pv_linear_epsilon(a_coef, b_coef, eps):
    """Real part of the eps-smoothed ball integral of 1/(a*p1 + b + i*eps)."""
    from scipy.integrate import quad

    a, b = float(a_coef), float(b_coef)
    if a == 0.0:
        raise ValueError("reduction needs a != 0")

    def integrand(r):
        num = (b + a * r) ** 2 + eps * eps
        den = (b - a * r) ** 2 + eps * eps
        return r * math.log(num / den)

    root = abs(b / a)
    pts = [root] if 0.0 < root < 1.0 else None
    val, _ = quad(integrand, 0.0, 1.0, points=pts,
                  limit=400, epsabs=1e-13, epsrel=1e-12)
    return (math.pi / a) * val


def f_gauged(x, A):
    """f_aux plus the gauge term A*(x^(7/3) - 1) it is defined up to."""
    return f_aux(x) + A * (x ** (7.0 / 3.0) - 1.0)


def ode_check_f(x, h=1e-4, A=0.0):
    """Residual of the second-order equation satisfied by the auxiliary
    function, via nested centered differences.

    The gauge freedom A*(x^(7/3) - 1) is annihilated by the operator up
    to stencil error, so the residual is A-independent to O(h^2).
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if abs(x - 1.0) < 10.0 * h:
        raise ValueError("stencil straddles the removable point x = 1")
    f = lambda z: f_gauged(z, A)
    fp_plus = (f(x + 2.0 * h) - f(x)) / (2.0 * h)
    fp_minus = (f(x) - f(x - 2.0 * h)) / (2.0 * h)
    H_plus = (x + h) ** (-4.0 / 3.0) * fp_plus
    H_minus = (x - h) ** (-4.0 / 3.0) * fp_minus
    lhs = -8.0 * math.pi * x ** (7.0 / 3.0) * (H_plus - H_minus) / (2.0 * h)
    t = x ** (1.0 / 3.0)
    rhs = 8.0 * math.pi ** 2 * (
        2.0 + x ** (-1.0 / 3.0) * (x ** (2.0 / 3.0) - 1.0)
        * (math.log(abs(1.0 - t)) - math.log1p(t)))
    return abs(lhs - rhs)


def scattering_length_from_integral(solution):
    """a = (1/2) * integral of V(r) u(r) r dr, on the Gauss panels of the
    potentials' _radial_rule with u between grid nodes from _u_at."""
    r, wv = _radial_rule(solution.potential, 0.0)
    return 0.5 * float(wv @ (_u_at(solution, r) * r))


def _pair_terms(lattice, p, spin):
    """The strings of the quasi-bosonic b_{p,sigma}: all particle-hole pair
    removals at transfer p (an integer triple)."""
    ins, reflect = lattice.inside[spin].tolist(), lattice.reflect.tolist()
    # the index of n_i + p, None off the grid
    moved = [lattice.index.get(tuple(m)) for m in (lattice.n + p).tolist()]
    return [[(2 * j + spin, False), (2 * reflect[i] + spin, False)]
            for i, j in enumerate(moved) if ins[i] and j is not None and not ins[j]]


def q2_ud_from_pairs(lattice, basis, vhat):
    """Opposite-spin Q2 rebuilt from products of pair operators, V^ read
    through the same checks as every library reader of a V^ table."""
    vol = lattice.L ** 3
    # each distinct transfer p = n_i - n_j once, V^(p) read at its first pair
    transfers, first = np.unique((lattice.n[:, None] - lattice.n[None]).reshape(-1, 3),
                                 axis=0, return_index=True)
    terms = []
    for p, val in zip(transfers, fock._vhat_table(lattice, vhat).ravel()[first].tolist()):
        if val == 0.0:
            continue
        up = _pair_terms(lattice, p, fock.SPIN_UP)
        down = _pair_terms(lattice, np.negative(p), fock.SPIN_DOWN) if up else []
        terms += [(val / vol, ou + od) for ou in up for od in down]
    # plus the adjoint: the factors reversed, each one's dagger flipped
    terms += [(c, [(j, not d) for j, d in reversed(ops)]) for c, ops in terms]
    return fock.make_operator(basis, terms, hermitian=True)


def g_full_balls(x, p, n_gauss=16, n_levels=30):
    """g(x, p) for p >= 2, where both shells |k| < 1 and |q| < x^(1/3) are
    full balls: 9/(8 pi^2) times the tensor Gauss sum over the axial
    components s, t of pi(1 - s^2) pi(x^(2/3) - t^2) / (2p^2 + 2p(s + t)).
    Each axis is n_levels + 1 panels of n_gauss nodes, graded dyadically
    toward its lower end: at p = 2, x = 1 the denominator vanishes at the
    corner s = t = -1."""
    xg, wg = np.polynomial.legendre.leggauss(n_gauss)

    def axis(kf):
        edges = -kf + 2.0 * kf * np.concatenate(
            ([0.0], 2.0 ** -np.arange(n_levels, -1, -1.0)))
        a, b = edges[:-1, None], edges[1:, None]
        s = (0.5 * (a + b) + 0.5 * (b - a) * xg).ravel()
        return s, (0.5 * (b - a) * wg).ravel() * np.pi * (kf * kf - s * s)

    s, ws = axis(1.0)
    t, wt = axis(x ** (1.0 / 3.0))
    den = 2.0 * p * p + 2.0 * p * (s[:, None] + t[None, :])
    return 9.0 / (8.0 * math.pi ** 2) * float(ws @ (1.0 / den) @ wt)
