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
O(n) in the axis length, taken for every p-node of one rung's rule in
one inner_pair call on a (p, s) array. The denominator vanishes only at
the corner s = t = -p/2, reachable when p <= 2*min(kF, kF'); the s
panels are graded dyadically into that corner.

The oracles (g_pointwise and the p-integrated F_quadrature,
singular_integral_bound and gap_cutoff_study) climb one ladder of
rules, _RUNGS, from coarse to fine and stop at the first rung whose
difference to the one below, plus the tail term, meets tol; that sum is
the error estimate and the rung is reported. The ``evaluations`` they
report count (p, s) node pairs over every rung climbed, one closed-form
t-integral each.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .cutoffs import fermi_momentum, quintic_step
from .hyformula import F_closed, f_aux

@functools.lru_cache(maxsize=None)
def _gauss(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n;
    callers must not write to the shared arrays."""
    return np.polynomial.legendre.leggauss(n)


def _panels(edges, n):
    """Nodes and weights of n-point Gauss panels between sorted edges; a
    2-D edges array gives one row of nodes per row of edges."""
    xg, wg = _gauss(n)
    edges = np.asarray(edges, dtype=np.float64)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    half = 0.5 * (b - a)
    shape = edges.shape[:-1] + (-1,)
    return ((0.5 * (a + b) + half * xg).reshape(shape),
            (half * wg).reshape(shape))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    elapsed: float
    flagged: bool = False
    # the ladder rung the value comes from
    rung: int | None = None


def slice_measure(s, kf, p):
    """Area of the slice at axial coordinate s of the shell
    |k| < kf < |k + p|, as a function of s = k.p/|p|."""
    s = np.asarray(s, dtype=np.float64)
    return np.pi * np.maximum(0.0, np.minimum(kf * kf - s * s,
                                              2.0 * p * s + p * p))


def _support(kf, p):
    """Lower end and kink of the axial support, and whether the kink lies
    inside it (p < 2*kf): then the slice measure has two pieces and the
    corner s = t = -p/2 is reachable."""
    lo = np.maximum(-kf, -0.5 * p)
    kink = kf - p
    return lo, kink, kink > lo


# the edges of eight even panels on [0, 1]
_EVEN = np.arange(9) / 8.0


def _axis(kf, p, n_gauss, n_levels):
    """Quadrature nodes/weights on the axial support, slice measure
    folded into the weights.

    p is a scalar, or a 1-D array all on one side of 2*kf; row i of the
    (P, S) result then belongs to p[i]. Below 2*kf the panels are graded
    dyadically into the corner, above it they are even.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))[:, None]
    lo, kink, two = _support(kf, p)
    if two.all():
        graded = np.concatenate(([0.0], 2.0 ** -np.arange(n_levels, 0, -1.0)))
        edges = np.concatenate((lo + (kink - lo) * graded,
                                kink + (kf - kink) * _EVEN[::2]), axis=1)
    elif not two.any():
        edges = lo + (kf - lo) * _EVEN
    else:
        raise ValueError("p must lie on one side of 2*kf")
    s, w = _panels(edges, n_gauss)
    w = w * slice_measure(s, kf, p)
    return (s[0], w[0]) if scalar else (s, w)


# a piece across which u grows by less than this share of u_a + u_b is
# summed by Gauss: the closed form would cancel there, the integrand not
_FLAT = 0.25


def _t_piece(beta, p, kf, ta, tb, linear, power):
    """One polynomial piece [ta, tb] of t_integral; beta is (R, S), p, ta
    and tb are (R, 1)."""
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
        xg, wg = _gauss(12)
        half = 0.5 * (tb - ta)
        t = 0.5 * (ta + tb) + half * xg
        area = math.pi * (p * (p + 2.0 * t) if linear else kf * kf - t * t)
        row = np.nonzero(flat)[0]
        inv = 1.0 / (beta[flat][:, None] + (p * (p + 2.0 * t))[row])
        if power == 2:
            inv *= inv
        closed[flat] = np.einsum("fk,fk->f", inv, (half * wg * area)[row])
    return closed


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

    p is a scalar, or a 1-D array with one value per row of a 2-D beta;
    whether the first piece exists (p < 2*kf) is decided per row.
    """
    shape = np.shape(beta)
    p = np.asarray(p, dtype=np.float64).reshape(-1, 1)
    beta = np.asarray(beta, dtype=np.float64).reshape(len(p), -1)
    lo, kink, two = _support(kf, p)
    two = two[:, 0]
    total = _t_piece(beta, p, kf, np.where(two[:, None], kink, lo),
                     np.full_like(p, kf), False, power)
    if two.any():
        total[two] += _t_piece(beta[two], p[two], kf, lo[two], kink[two],
                               True, power)
    return total.reshape(shape) if shape else float(total[0, 0])


# (p, s) node pairs per block of inner_pair: keeps each 12-node temporary
# of the flat t-pieces near 1.5 MB
_BLOCK = 1 << 14


def inner_pair(p, kf1, kf2, two_eps=0.0, power=1, n_gauss=16, n_levels=18):
    """Double shell integral of (2p^2 + 2p(s+t) + two_eps)^-power against
    the two slice measures; the core of every study below.

    s runs over the graded Gauss axis of the kf1 shell, the t-integral over
    the kf2 shell is exact. p is a scalar or a 1-D array (every p-node of
    a rule); returns the value (a float, or one per p) and the number of
    s-nodes summed over all p. The axis branch (p < 2*kf1) and the t-split
    (p < 2*kf2) are taken per p, so 2*kf need not be a panel edge. Each
    row is computed on its own, so how the p-nodes are batched changes no
    bit of the result.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    out = np.zeros(p.shape)
    evals = 0
    if kf1 > 0.0 and kf2 > 0.0:
        # p <= 0 contributes nothing; a NaN p stays NaN
        live = ~(p <= 0.0)
        two = _support(kf1, p)[2]
        # an extreme p over- or underflows p^2 and p^3, mostly in the closed
        # form of a flat t-piece, which its Gauss sum overwrites; a NaN that
        # survives still reaches the oracles' flags and the CLI's non-finite guard
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for rows in (np.flatnonzero(live & two), np.flatnonzero(live & ~two)):
                if not rows.size:
                    continue
                s, ws = _axis(kf1, p[rows], n_gauss, n_levels)
                evals += s.size
                step = max(1, _BLOCK // s.shape[1])
                for i in range(0, rows.size, step):
                    r = rows[i:i + step]
                    pr = p[r, None]
                    beta = two_eps + pr * (pr + 2.0 * s[i:i + step])
                    out[r] = np.einsum("ij,ij->i", ws[i:i + step],
                                       t_integral(beta, p[r], kf2, power))
    return (float(out[0]), evals) if scalar else (out, evals)


def _composite_p(fn, edges, n_p):
    """Gauss panels over [edges]; wide segments are split geometrically.
    fn takes every node of the rule at once and returns (values,
    evaluations); the values are summed panel by panel, in order."""
    refined = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(2, int(math.ceil(math.log2(b / a)))) \
            if a > 0.0 and b / a > 4.0 else 1
        refined += [a * (b / a) ** (i / m) for i in range(1, m)] + [b]
    nodes, weights = _panels(refined, n_p)
    values, evals = fn(nodes)
    total = 0.0
    for ww, vv in zip(weights.reshape(-1, n_p), values.reshape(-1, n_p)):
        total += float(ww @ vv)
    return total, evals


# the rule ladder of the p-integrated oracles, coarse to fine: Gauss nodes
# per s-panel, dyadic levels into the corner, Gauss nodes per p-panel
_RUNGS = ((6, 6, 8), (8, 8, 12), (12, 12, 18), (16, 16, 28), (22, 20, 40),
          (28, 24, 56))


def _ladder(rule, tol, scale, shift=0.0, tail_err=0.0, floor=1e-300):
    """scale * I + shift, with I = rule(n_gauss, n_levels, n_p) climbing
    _RUNGS until the estimate meets tol; rule returns (I, evaluations).

    The estimate at rung k >= 1 is scale * |I_k - I_(k-1)| + tail_err; the
    climb stops at the first rung where it is at most tol*max(floor,
    |value|), or at the top. A NaN tol never stops it. Returns (value,
    estimate, evaluations, rung, met).
    """
    evals = 0
    for rung, (n_g, n_l, n_p) in enumerate(_RUNGS):
        cur, n = rule(n_g, n_l, n_p)
        evals += n
        if rung:
            value = scale * cur + shift
            err = scale * abs(cur - prev) + tail_err
            met = err <= tol * max(floor, abs(value))
            if met:
                break
        prev = cur
    return value, err, evals, rung, met


def g_domain(x, p):
    """Raise ValueError unless g_pointwise is defined at (x, p)."""
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")


def g_pointwise(x, p, tol=1e-6):
    """Normalized pair excitation integrand g(x, p).

    Behaves like x/p^2 at large p; the full p-integral of x - p^2 g
    rebuilds F(x) up to constants. The s-rule climbs _RUNGS like the
    p-integrated oracles, against tol * max(1, |g|).
    """
    g_domain(x, p)
    t0 = time.perf_counter()
    y = x ** (1.0 / 3.0)
    value, err, evals, rung, met = _ladder(
        lambda n_g, n_l, n_p: inner_pair(p, 1.0, y, 0.0, 1, n_g, n_l),
        tol, 9.0 / (8.0 * math.pi ** 2), floor=1.0)
    return QuadratureResult(value=value, error_estimate=err,
                            evaluations=evals,
                            elapsed=time.perf_counter() - t0,
                            flagged=not met, rung=rung)


def _g_tail_coeffs(x):
    # large-p expansion g = x/p^2 + c4/p^4 + c6/p^6 + c8/p^8 + ..., from the
    # moments of the slice measures once both shells are full balls (c8 is
    # 9/(16 pi^2) times their sixth moment)
    c4 = (x + x ** (5.0 / 3.0)) / 5.0
    c6 = (3.0 / 35.0) * (x + x ** (7.0 / 3.0)) + (6.0 / 25.0) * x ** (5.0 / 3.0)
    c8 = (x + x ** 3) / 21.0 + (9.0 / 35.0) * (x ** (5.0 / 3.0) + x ** (7.0 / 3.0))
    return c4, c6, c8


def F_quadrature(x, tol=1e-3):
    """F(x) rebuilt from the p-resolved pair integral, independent of the
    closed form.

    Integrates 4*pi*p^2*(x/p^2 - g(x, p)) to the cut radius 50, then adds
    the analytic tail from the large-p moments. Arguments beyond 1 are
    reflected through the symmetry law first.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if x > 1.0:
        inner = F_quadrature(1.0 / x, tol)
        scale = x ** (7.0 / 3.0)
        return QuadratureResult(value=scale * inner.value,
                                error_estimate=scale * inner.error_estimate,
                                evaluations=inner.evaluations,
                                elapsed=inner.elapsed, flagged=inner.flagged,
                                rung=inner.rung)
    t0 = time.perf_counter()
    y = x ** (1.0 / 3.0)
    p_cut = 50.0
    gpref = 9.0 / (8.0 * math.pi ** 2)

    edges = sorted({0.0, 2.0 * y, 2.0, 6.0, p_cut})

    def rule(n_g, n_l, n_p):
        def fn(p):
            v, n = inner_pair(p, 1.0, y, 0.0, 1, n_g, n_l)
            return x - p * p * gpref * v, n
        return _composite_p(fn, edges, n_p)

    c4, c6, c8 = _g_tail_coeffs(x)
    # the error term keeps the c6 size: the next omitted term alone reads
    # below the true distance to F_closed
    tail = -(c4 / p_cut + c6 / (3.0 * p_cut ** 3) + c8 / (5.0 * p_cut ** 5))
    pref = (4.0 / math.pi) * (6.0 * math.pi ** 2) ** (1.0 / 3.0) * 4.0 * math.pi
    value, err, evals, rung, met = _ladder(
        rule, tol, pref, pref * tail, pref * abs(c6) / p_cut ** 5, floor=1.0)
    return QuadratureResult(value=value, error_estimate=err,
                            evaluations=evals,
                            elapsed=time.perf_counter() - t0,
                            flagged=not met, rung=rung)


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
    quadrature. Extrapolate eps -> 0 to recover the principal value.
    A test reference: it imports scipy, which only the `test` extra
    installs."""
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
    """Real part of the eps-smoothed ball integral of 1/(a*p1 + b + i*eps).
    A test reference: it imports scipy, which only the `test` extra
    installs."""
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
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
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

        edges = sorted({0.0, 2.0 * kd, 2.0 * ku, cc.c_lower, cc.c_upper})
        edges = [e for e in edges if e <= cc.c_upper]

        def rule(n_g, n_l, n_p):
            def fn(p):
                v, n = inner_pair(p, ku, kd, two_eps, 1, n_g, n_l)
                chi2 = cc.chi_less(p) ** 2
                return p * p * chi2 * (v - vol_pair / (2.0 * p * p)), n
            return _composite_p(fn, edges, n_p)

        i_reg, err, evals, rung, met = _ladder(rule, tol, 4.0 * math.pi)
        i_lim = -8.0 * math.pi ** 7 * rho_up ** (7.0 / 3.0) * F_closed(x)
        rows.append({
            "rho": rho,
            "i_regularized": i_reg,
            "i_limit": i_lim,
            "diff": abs(i_reg - i_lim),
            "error_estimate": err,
            "evaluations": evals,
            "rung": rung,
            "elapsed": time.perf_counter() - t0,
            "flagged": not met or cc.c_lower <= max(ku, kd),
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
        acc += float(np.sum(quintic_step(r, c1, c2) ** 2 / (2.0 * r * r)))
    return acc


# the largest cube half-width lattice_sum_convergence sums: (2*256 + 1)^3
# ~ 1.3e8 lattice points, a few seconds of work
_MAX_LATTICE_NMAX = 256


def lattice_nmax(L, cutoff):
    """Half-width of the cube of lattice momenta that a box of side L sums
    up to the cutoff's c_upper, counted before any work; a nonpositive L
    or one above _MAX_LATTICE_NMAX raises."""
    if not L > 0.0:
        raise ValueError(f"L values must be positive, got {L}")
    extent = cutoff.c_upper / (2.0 * math.pi / L)
    if not extent <= _MAX_LATTICE_NMAX:
        raise ValueError(
            f"L = {L} needs a cube of half-width {extent:.6g} lattice "
            f"momenta; the limit is {_MAX_LATTICE_NMAX}")
    return int(math.ceil(extent))


def lattice_sum_convergence(L_grid, cutoff):
    """Riemann-sum convergence of the cutoff kernel:
    (1/L^3) * sum over nonzero lattice momenta of chi_less^2/(2p^2)
    against its thermodynamic-limit integral. Every L is sized by
    lattice_nmax before the first sum."""
    c1, c2 = cutoff.c_lower, cutoff.c_upper
    rr, wr = _panels([c1, c2], 64)
    integral = (c1 + float(np.sum(wr * cutoff.chi_less(rr) ** 2))) \
        / (4.0 * math.pi ** 2)
    sizes = [lattice_nmax(L, cutoff) for L in L_grid]
    rows = []
    for L, nmax in zip(L_grid, sizes):
        t0 = time.perf_counter()
        fac = 2.0 * math.pi / L
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

        edges = sorted({0.0, 2.0 * x, 2.0, 6.0, p_cut})

        def rule(n_g, n_l, n_p):
            def fn(p):
                v, n = inner_pair(p, 1.0, x, 0.0, 2, n_g, n_l)
                return p * p * v, n
            return _composite_p(fn, edges, n_p)

        m0 = lambda kf: (4.0 * math.pi / 3.0) * kf ** 3
        m2 = lambda kf: (4.0 * math.pi / 15.0) * kf ** 5
        m4 = lambda kf: (4.0 * math.pi / 35.0) * kf ** 7
        tail = math.pi * (m0(1.0) * m0(x) / p_cut
                          + (m2(1.0) * m0(x) + m0(1.0) * m2(x)) / p_cut ** 3)
        tail_err = math.pi * (m4(1.0) * m0(x) + m0(1.0) * m4(x)
                              + 6.0 * m2(1.0) * m2(x)) / p_cut ** 5
        value, err, evals, rung, met = _ladder(rule, tol, 4.0 * math.pi,
                                               tail, tail_err)
        rows.append({
            "x": x,
            "value": value,
            "error_estimate": err,
            "evaluations": evals,
            "rung": rung,
            "elapsed": time.perf_counter() - t0,
            "flagged": not met,
        })
    return rows
