"""Quadrature oracles for the second-order energy integrals.

The shared geometric fact used throughout: every integrand below depends
on the momenta k, q only through |k|, |q| and their components along p,
so a 6D Pauli-constrained double ball integral collapses to a 2D
integral over the axial components s = k.p/|p|, t = -q.p/|p| weighted by
the annulus slice measure

    A(s; kF, p) = pi * max(0, min(kF^2 - s^2, 2ps + p^2)).

The slice measure is a polynomial on each of at most two pieces, so the
t-integral of (2p^2 + 2p(s+t) + 2*eps)^-power is done in closed form
(t_integral) and only s is left to quadrature: one Gauss sum per p-node,
O(n) in the axis length. The denominator vanishes only at the corner
s = t = -p/2, reachable when p <= 2*min(kF, kF'); the s panels are graded
dyadically into that corner. The ``evaluations`` a study reports count
s-nodes, one closed-form t-integral each.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .cutoffs import CutoffConfig, FermiProjectors, fermi_momentum
from .hyformula import F_closed, f_aux

_GAUSS_CACHE = {}


def _gauss(n):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    elapsed: float
    flagged: bool = False


def slice_measure(s, kf, p):
    """Area of the slice at axial coordinate s of the shell
    |k| < kf < |k + p|, as a function of s = k.p/|p|."""
    s = np.asarray(s, dtype=np.float64)
    return np.pi * np.maximum(0.0, np.minimum(kf * kf - s * s,
                                              2.0 * p * s + p * p))


def _axis(kf, p, n_gauss, n_levels):
    """Quadrature nodes/weights on the axial support, slice measure
    folded into the weights."""
    lo = max(-kf, -0.5 * p)
    hi = kf
    kink = kf - p
    xg, wg = _gauss(n_gauss)
    if kink > lo:
        width = kink - lo
        edges = np.concatenate((
            [lo], lo + width * 2.0 ** -np.arange(n_levels, 0, -1.0), [kink],
            np.linspace(kink, hi, 5)[1:]))
    else:
        edges = np.linspace(lo, hi, 9)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    s = (0.5 * (a + b) + half * xg).ravel()
    w = (half * wg).ravel() * slice_measure(s, kf, p)
    return s, w


# a piece across which u grows by less than this share of u_a + u_b is
# summed by Gauss: the closed form would cancel there, the integrand not
_FLAT = 0.25


def t_integral(beta, p, kf, power):
    """Integral over t of A(t; kf, p) / (beta + p*(p + 2t))^power, exactly,
    for each beta > 0 of an array.

    With s the other axial coordinate, beta = 2*eps + p*(p + 2s) makes the
    denominator the pair dispersion 2p^2 + 2p(s+t) + 2*eps. In
    u = beta + p*(p + 2t) the slice measure is pi*(u - beta) on
    [-p/2, kf - p] and pi*(u_b - u)(u - u_m)/(4p^2) on [kf - p, kf], so each
    piece is a logarithm plus a polynomial in its end values of u. Every
    u is formed as beta plus a product, so nothing cancels near the corner
    beta = 0. On a piece where u changes by less than _FLAT of its size the
    closed form cancels instead; there the nearest pole, u = 0, lies at
    least four half-widths away and 12 Gauss nodes are exact to rounding.
    """
    shape = np.shape(beta)
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    lo = max(-kf, -0.5 * p)
    kink = kf - p
    pieces = ((lo, kink, True), (kink, kf, False)) if kink > lo else \
        ((lo, kf, False),)
    xg, wg = _gauss(12)
    total = np.zeros(beta.shape)
    for ta, tb, linear in pieces:
        ua = beta + p * (p + 2.0 * ta)
        ub = beta + p * (p + 2.0 * tb)
        du = 2.0 * p * (tb - ta)
        log_ratio = np.log1p(du / ua)
        if linear:
            # ua == beta: the slice area vanishes at the lower end
            closed = (math.pi / (2.0 * p)) * (
                du - beta * log_ratio if power == 1 else log_ratio - du / ub)
        else:
            um = beta + p * (p - 2.0 * kf)
            closed = (math.pi / (8.0 * p ** 3)) * (
                du * (ub + um - 0.5 * (ub + ua)) - ub * um * log_ratio
                if power == 1 else
                (ub + um) * log_ratio - du - um * du / ua)
        flat = du < _FLAT * (ua + ub)
        if flat.any():
            t = 0.5 * (ta + tb) + 0.5 * (tb - ta) * xg
            area = math.pi * (p * (p + 2.0 * t) if linear else kf * kf - t * t)
            den = beta[flat][:, None] + p * (p + 2.0 * t)
            closed[flat] = 0.5 * (tb - ta) * (den ** -power @ (wg * area))
        total += closed
    return total.reshape(shape) if shape else float(total[0])


def inner_pair(p, kf1, kf2, two_eps=0.0, power=1, n_gauss=16, n_levels=18):
    """Double shell integral of (2p^2 + 2p(s+t) + two_eps)^-power against
    the two slice measures; the core of every study below.

    s runs over the graded Gauss axis of the kf1 shell, the t-integral over
    the kf2 shell is exact. Returns (value, number of s-nodes).
    """
    if p <= 0.0 or kf1 <= 0.0 or kf2 <= 0.0:
        return 0.0, 0
    s, ws = _axis(kf1, p, n_gauss, n_levels)
    beta = two_eps + p * (p + 2.0 * s)
    return float(ws @ t_integral(beta, p, kf2, power)), len(s)


def _composite_p(fn, edges, n_p):
    """Gauss panels over [edges]; wide segments are split geometrically."""
    xg, wg = _gauss(n_p)
    total = 0.0
    evals = 0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        if a > 0.0 and b / a > 4.0:
            m = max(2, int(math.ceil(math.log2(b / a))))
            sub = [a * (b / a) ** (i / m) for i in range(m + 1)]
        else:
            sub = [a, b]
        for lo, hi in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            for xx, ww in zip(mid + half * xg, half * wg):
                v, n = fn(xx)
                total += ww * v
                evals += n
    return total, evals


def g_pointwise(x, p, tol=1e-6):
    """Normalized pair excitation integrand g(x, p).

    Behaves like x/p^2 at large p; the full p-integral of x - p^2 g
    rebuilds F(x) up to constants.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    if p <= 0.0:
        raise ValueError("p must be positive")
    t0 = time.perf_counter()
    y = x ** (1.0 / 3.0)
    pref = 9.0 / (8.0 * math.pi ** 2)
    v1, n1 = inner_pair(p, 1.0, y, 0.0, 1, 16, 18)
    v2, n2 = inner_pair(p, 1.0, y, 0.0, 1, 24, 22)
    err = pref * abs(v2 - v1)
    evals = n1 + n2
    value = pref * v2
    flagged = err > tol * max(1.0, abs(value))
    if flagged:
        v3, n3 = inner_pair(p, 1.0, y, 0.0, 1, 32, 26)
        err = pref * abs(v3 - v2)
        value = pref * v3
        evals += n3
        flagged = err > tol * max(1.0, abs(value))
    return QuadratureResult(value=value, error_estimate=err,
                            evaluations=evals,
                            elapsed=time.perf_counter() - t0,
                            flagged=flagged)


def _g_tail_coeffs(x):
    # large-p expansion g = x/p^2 + c4/p^4 + c6/p^6 + ..., from the
    # moments of the slice measures once both shells are full balls
    c4 = (x + x ** (5.0 / 3.0)) / 5.0
    c6 = (3.0 / 35.0) * (x + x ** (7.0 / 3.0)) + (6.0 / 25.0) * x ** (5.0 / 3.0)
    return c4, c6


def F_quadrature(x, tol=1e-3):
    """F(x) rebuilt from the p-resolved pair integral, independent of the
    closed form.

    Integrates 4*pi*p^2*(x/p^2 - g(x, p)) to the cut radius 50, then adds
    the analytic tail from the large-p moments. Arguments beyond 1 are
    reflected through the symmetry law first.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    if x > 1.0:
        inner = F_quadrature(1.0 / x, tol)
        scale = x ** (7.0 / 3.0)
        return QuadratureResult(value=scale * inner.value,
                                error_estimate=scale * inner.error_estimate,
                                evaluations=inner.evaluations,
                                elapsed=inner.elapsed, flagged=inner.flagged)
    t0 = time.perf_counter()
    y = x ** (1.0 / 3.0)
    p_cut = 50.0
    gpref = 9.0 / (8.0 * math.pi ** 2)

    def make_fn(n_g, n_l):
        def fn(p):
            v, n = inner_pair(p, 1.0, y, 0.0, 1, n_g, n_l)
            return x - p * p * gpref * v, n
        return fn

    edges = sorted({0.0, 2.0 * y, 2.0, 6.0, p_cut})
    i1, e1 = _composite_p(make_fn(14, 16), edges, 24)
    i2, e2 = _composite_p(make_fn(20, 20), edges, 40)
    c4, c6 = _g_tail_coeffs(x)
    tail = -(c4 / p_cut + c6 / (3.0 * p_cut ** 3))
    pref = (4.0 / math.pi) * (6.0 * math.pi ** 2) ** (1.0 / 3.0) * 4.0 * math.pi
    value = pref * (i2 + tail)
    err = pref * (abs(i2 - i1) + abs(c6) / p_cut ** 5)
    evals = e1 + e2
    flagged = err > tol * max(1.0, abs(value))
    if flagged:
        i3, e3 = _composite_p(make_fn(28, 24), edges, 56)
        value = pref * (i3 + tail)
        err = pref * (abs(i3 - i2) + abs(c6) / p_cut ** 5)
        evals += e3
        flagged = err > tol * max(1.0, abs(value))
    return QuadratureResult(value=value, error_estimate=err,
                            evaluations=evals,
                            elapsed=time.perf_counter() - t0, flagged=flagged)


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
    1/(a*p1 + b); kept exactly as derived and validated against the
    smoothed oracle before use."""
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


def ode_check_f(x, h=1e-4, A=0.0):
    """Residual of the second-order equation satisfied by the auxiliary
    function, via nested centered differences.

    The gauge freedom A*(x^(7/3) - 1) is annihilated by the operator up
    to stencil error, so the residual is A-independent to O(h^2).
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    if abs(x - 1.0) < 10.0 * h:
        raise ValueError("stencil straddles the removable point x = 1")
    f = lambda z: f_aux(z, A)
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


def gap_cutoff_study(params, cutoff, rho_grid, tol=1e-4):
    """Regularized vs limiting second-order integral along a density grid.

    For each rho the spin split keeps the ratio of params; the
    regularized integral carries the gap 2*eps in the denominator and the
    squared low-momentum cutoff, the limit value is the closed form. The
    difference should vanish like rho^(7/3 + min(gamma, delta)).
    """
    if params.rho_up <= 0.0 or params.rho_down <= 0.0:
        raise ValueError("both densities must be positive for the study")
    x = params.rho_down / params.rho_up
    rows = []
    for rho in rho_grid:
        t0 = time.perf_counter()
        cc = cutoff.with_rho(rho)
        rho_up = rho / (1.0 + x)
        rho_dn = rho - rho_up
        ku, kd = fermi_momentum(rho_up), fermi_momentum(rho_dn)
        vol_pair = (4.0 * math.pi / 3.0) ** 2 * (ku * kd) ** 3
        two_eps = 2.0 * cc.epsilon

        def make_fn(n_g, n_l):
            def fn(p):
                v, n = inner_pair(p, ku, kd, two_eps, 1, n_g, n_l)
                chi2 = float(cc.chi_less(p)) ** 2
                return p * p * chi2 * (v - vol_pair / (2.0 * p * p)), n
            return fn

        edges = sorted({0.0, 2.0 * kd, 2.0 * ku, cc.c_lower, cc.c_upper})
        edges = [e for e in edges if e <= cc.c_upper]
        i1, e1 = _composite_p(make_fn(14, 18), edges, 32)
        i2, e2 = _composite_p(make_fn(20, 22), edges, 48)
        i_reg = 4.0 * math.pi * i2
        err = 4.0 * math.pi * abs(i2 - i1)
        i_lim = -8.0 * math.pi ** 7 * rho_up ** (7.0 / 3.0) * F_closed(x)
        rows.append({
            "rho": rho,
            "i_regularized": i_reg,
            "i_limit": i_lim,
            "diff": abs(i_reg - i_lim),
            "error_estimate": err,
            "evaluations": e1 + e2,
            "elapsed": time.perf_counter() - t0,
            "flagged": (err > tol * max(abs(i_reg), 1e-300)
                        or cc.c_lower <= max(ku, kd)),
        })
    return rows


def lattice_chi_sum(nmax, fac, c1, c2):
    """sum over nonzero n in the cube |n_i| <= nmax of chi^2/(2r^2), with
    r = fac*|n| and chi the quintic step from 1 at c1 down to 0 at c2."""
    n = np.arange(-nmax, nmax + 1)
    plane = (n[:, None] ** 2 + n[None, :] ** 2).ravel()
    acc = 0.0
    # slab over the first index to keep memory flat at large nmax
    for i in n:
        n2 = (i * i + plane).astype(np.float64)
        n2 = n2[n2 > 0]
        r = fac * np.sqrt(n2)
        r = r[r < c2]
        u = np.clip((r - c1) / (c2 - c1), 0.0, 1.0)
        chi = 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
        acc += float(np.sum(chi * chi / (2.0 * r * r)))
    return acc


def lattice_sum_convergence(L_grid, cutoff, params=None):
    """Riemann-sum convergence of the cutoff kernel:
    (1/L^3) * sum over nonzero lattice momenta of chi_less^2/(2p^2)
    against its thermodynamic-limit integral."""
    if params is not None and not math.isclose(params.rho, cutoff.rho,
                                               rel_tol=1e-12):
        raise ValueError("params density disagrees with cutoff density")
    c1, c2 = cutoff.c_lower, cutoff.c_upper
    xg, wg = _gauss(64)
    mid, half = 0.5 * (c1 + c2), 0.5 * (c2 - c1)
    rr = mid + half * xg
    integral = (c1 + float(np.sum(half * wg * cutoff.chi_less(rr) ** 2))) \
        / (4.0 * math.pi ** 2)
    rows = []
    for L in L_grid:
        t0 = time.perf_counter()
        fac = 2.0 * math.pi / L
        nmax = int(math.ceil(c2 / fac))
        total = lattice_chi_sum(nmax, fac, c1, c2) / L ** 3
        rows.append({
            "L": L,
            "sum_value": total,
            "integral_value": integral,
            "diff": abs(total - integral),
            "elapsed": time.perf_counter() - t0,
        })
    return rows


def singular_integral_bound(x_grid, tol=1e-3):
    """Finiteness check of the doubly Pauli-constrained integral of the
    inverse squared pair dispersion; the minority radius is x itself.

    Numerical to the cut radius 30, then the analytic moment tail; the
    result stays finite down to tiny x and grows with x.
    """
    p_cut = 30.0
    rows = []
    for x in x_grid:
        if not 0.0 < x <= 1.0:
            raise ValueError("x must lie in (0, 1]")
        t0 = time.perf_counter()

        def make_fn(n_g, n_l):
            def fn(p):
                v, n = inner_pair(p, 1.0, x, 0.0, 2, n_g, n_l)
                return p * p * v, n
            return fn

        edges = sorted({0.0, 2.0 * x, 2.0, 6.0, p_cut})
        i1, e1 = _composite_p(make_fn(14, 18), edges, 24)
        i2, e2 = _composite_p(make_fn(20, 22), edges, 40)
        m0 = lambda kf: (4.0 * math.pi / 3.0) * kf ** 3
        m2 = lambda kf: (4.0 * math.pi / 15.0) * kf ** 5
        m4 = lambda kf: (4.0 * math.pi / 35.0) * kf ** 7
        tail = math.pi * (m0(1.0) * m0(x) / p_cut
                          + (m2(1.0) * m0(x) + m0(1.0) * m2(x)) / p_cut ** 3)
        tail_err = math.pi * (m4(1.0) * m0(x) + m0(1.0) * m4(x)
                              + 6.0 * m2(1.0) * m2(x)) / p_cut ** 5
        value = 4.0 * math.pi * i2 + tail
        err = 4.0 * math.pi * abs(i2 - i1) + tail_err
        rows.append({
            "x": x,
            "value": value,
            "error_estimate": err,
            "evaluations": e1 + e2,
            "elapsed": time.perf_counter() - t0,
            "flagged": err > tol * max(abs(value), 1e-300),
        })
    return rows
