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

From p_far = max(2*max(kF, kF'), (kF + kF')/_R_MAX) on, both shells are
full balls and the pair integral is a convergent series in the balls'
even moments, summed to rounding with no quadrature (the far field).

The oracles (g_pointwise and the p-integrated F_quadrature,
singular_integral_bound and gap_cutoff_study) climb one ladder of
rules, _RUNGS, from coarse to fine and stop at the first rung whose
difference to the one below, summed panel by panel in absolute value,
plus the far field's truncation bound, meets tol; that sum is the error
estimate. F_quadrature and
singular_integral_bound integrate p on [0, p_far] and add [p_far, inf)
in closed form (_far_field). _ladder returns the timed QuadratureResult
with the rung reached; _p_ladder feeds it the p-rules. ``evaluations``
counts the (p, s) node pairs over every rung climbed, one closed-form
t-integral each, and one per far-field p-node.
"""

import functools
import itertools
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cutoffs import fermi_momentum, quintic_step
from .hyformula import F_closed, _refuse_overflow

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


# The far field. Once p >= 2*max(kf1, kf2) both slice measures are the
# balls' pi*(kf^2 - s^2), and with beta = 2p^2 + two_eps
#
#     inner_pair = beta^-k * sum_m c_m W_2m (2p/beta)^2m,
#
# c_m = 1 for power k = 1 and 2m + 1 for k = 2, W_2m the even moments of
# s + t over the two balls. From p_far on, r = 2p(kf1 + kf2)/beta <=
# (kf1 + kf2)/p is at most _R_MAX; the terms are positive and W_2m <=
# (kf1 + kf2)^2m W_0, so the remainder after n terms is at most
# W_0 beta^-k _remainder(r^2, n, k).
_R_MAX = 0.75


def _remainder(q, n, power):
    """sum over m >= n of c_m q^m, for q < 1, in closed form."""
    if power == 1:
        return q ** n / (1.0 - q)
    return q ** n * ((2 * n + 1) / (1.0 - q) + 2.0 * q / (1.0 - q) ** 2)


# terms of every far-field series: the fewest whose remainder at r = _R_MAX
# lies below rounding for either power
_TERMS = next(n for n in itertools.count(1)
              if _remainder(_R_MAX ** 2, n, 2) < 2.0 ** -53)


def _far_edge(kf1, kf2):
    """p_far: where the far-field series of inner_pair takes over."""
    return max(2.0 * max(kf1, kf2), (kf1 + kf2) / _R_MAX)


@functools.lru_cache(maxsize=None)
def _series_weights(n):
    """The even exponents j = 2m, (2m)! and (2m+1)(2m+3)(2m)!/3 for m < n,
    built once per n; callers must not write to the shared arrays."""
    j = 2.0 * np.arange(n)
    fact = np.cumprod(np.maximum(1.0, np.arange(2.0 * n - 1.0)))[::2]
    return j, fact, (j + 1.0) * (j + 3.0) * fact / 3.0


def _ball_moments(kf1, kf2):
    """W_0 and w_m = W_2m / (W_0 (kf1 + kf2)^2m) for m < _TERMS, each in
    [0, 1], so that no moment over- or underflows.

    The j-th moment of s over the ball of radius k is mu_j(k) =
    4 pi k^(j+3)/((j+1)(j+3)), and W_2m = sum_i C(2m, 2i) mu_2i(kf1)
    mu_(2m-2i)(kf2): one convolution of the mu_2i/(2i)!.
    """
    j, fact, den = _series_weights(_TERMS)
    big = kf1 + kf2
    w = np.convolve((kf1 / big) ** j / den,
                    (kf2 / big) ** j / den)[:_TERMS] * fact
    return (4.0 * math.pi / 3.0) ** 2 * (kf1 * kf2) ** 3, w


def _series_rows(p, kf1, kf2, two_eps, power):
    """inner_pair at p-nodes p >= _far_edge(kf1, kf2), row by row: the
    far-field series cut after _TERMS terms."""
    w0, w = _ball_moments(kf1, kf2)
    j = _series_weights(_TERMS)[0]
    c = w if power == 1 else (j + 1.0) * w
    beta = 2.0 * p * p + two_eps
    r = 2.0 * p * (kf1 + kf2) / beta
    return w0 / beta ** power * np.einsum("ij,j->i", r[:, None] ** j, c)


def _far_field(kf1, kf2, power):
    """p_far, the integral of p^2 inner_pair(p, kf1, kf2, 0, power) over
    [p_far, inf) summed term by term, and a bound on the terms past _TERMS.

    At two_eps = 0, r = (kf1 + kf2)/p and term m integrates to
    W_0 2^-k c_m w_m r^2m p_far^(3-2k) / (2m + 2k - 3), r at p_far;
    c_m / (2m + 2k - 3) <= 1 bounds the rest by _remainder(r^2, _TERMS, 1).
    For power 1 the m = 0 term, W_0/(2p^2), diverges and is left out: the
    caller subtracts it from its integrand.
    """
    p_far = _far_edge(kf1, kf2)
    w0, w = _ball_moments(kf1, kf2)
    j = _series_weights(_TERMS)[0]
    r = (kf1 + kf2) / p_far
    terms = w * r ** j
    if power == 1:
        terms = terms[1:] / (j[1:] - 1.0)
    scale = w0 * 2.0 ** -power * p_far ** (3 - 2 * power)
    return (p_far, scale * float(np.sum(terms)),
            scale * _remainder(r * r, _TERMS, 1))


# (p, s) node pairs per block of inner_pair: keeps each 12-node temporary
# of the flat t-pieces near 1.5 MB
_BLOCK = 1 << 14


def inner_pair(p, kf1, kf2, two_eps=0.0, power=1, n_gauss=16, n_levels=18):
    """Double shell integral of (2p^2 + 2p(s+t) + two_eps)^-power against
    the two slice measures; the core of every study below.

    s runs over the graded Gauss axis of the kf1 shell, the t-integral over
    the kf2 shell is exact; from _far_edge(kf1, kf2) on a row is the
    far-field series instead. p is a scalar or a 1-D array (every p-node
    of a rule); returns the value (a float, or one per p) and the number
    of s-nodes summed over all p, a series row counting as one. The axis
    branch (p < 2*kf1), the t-split (p < 2*kf2) and the series are taken
    per p, so neither 2*kf nor p_far need be a panel edge. Each row is
    computed on its own, so how the p-nodes are batched changes no bit of
    the result.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    out = np.zeros(p.shape)
    evals = 0
    if kf1 > 0.0 and kf2 > 0.0:
        # p <= 0 contributes nothing; a NaN p stays NaN
        live = ~(p <= 0.0)
        far = p >= _far_edge(kf1, kf2)
        two = _support(kf1, p)[2]
        # an extreme p over- or underflows p^2 and p^3, mostly in the closed
        # form of a flat t-piece, which its Gauss sum overwrites; a NaN that
        # survives still reaches the oracles' flags and the CLI's non-finite guard
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if far.any():
                out[far] = _series_rows(p[far], kf1, kf2, two_eps, power)
                evals += int(far.sum())
            for rows in (np.flatnonzero(live & two),
                         np.flatnonzero(live & ~two & ~far)):
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


# the rule ladder of the p-integrated oracles, coarse to fine: Gauss nodes
# per s-panel, dyadic levels into the corner, Gauss nodes per p-panel
_RUNGS = ((6, 6, 8), (8, 8, 12), (12, 12, 18), (16, 16, 28), (22, 20, 40),
          (28, 24, 56))


def _ladder(rule, tol, scale, shift=0.0, far_err=0.0, floor=1e-300):
    """scale * I + shift, with I the sum of the parts that rule(n_gauss,
    n_levels, n_p) returns, climbing _RUNGS until the estimate meets tol;
    rule returns (parts, evaluations), parts a list of floats.

    The estimate at rung k >= 1 is scale times the sum over parts of
    |part_k - part_(k-1)|, plus far_err: summed part by part, errors of
    opposite sign in two panels cannot cancel in it. The climb stops at
    the first rung where it is at most tol*max(floor, |value|), or at the
    top, flagged. A NaN tol never stops it. Returns the QuadratureResult,
    timed over the climb.
    """
    t0 = time.perf_counter()
    evals = 0
    for rung, (n_g, n_l, n_p) in enumerate(_RUNGS):
        parts, n = rule(n_g, n_l, n_p)
        evals += n
        if rung:
            value = scale * sum(parts) + shift
            err = (scale * sum(abs(a - b) for a, b in zip(parts, prev))
                   + far_err)
            met = err <= tol * max(floor, abs(value))
            if met:
                break
        prev = parts
    return QuadratureResult(value=value, error_estimate=err,
                            evaluations=evals,
                            elapsed=time.perf_counter() - t0,
                            flagged=not met, rung=rung)


def _p_ladder(weight, edges, kf1, kf2, two_eps, power, tol, scale,
              shift=0.0, far_err=0.0, floor=1e-300):
    """_ladder over the p-integral of weight(p, v), v = inner_pair(p, kf1,
    kf2, two_eps, power), on Gauss panels between the sorted edges; a
    segment wider than a factor 4 is split geometrically, once per call.
    Each rung is one inner_pair call; its parts are the panel sums, in
    order."""
    refined = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(2, int(math.ceil(math.log2(b / a)))) \
            if a > 0.0 and b / a > 4.0 else 1
        refined += [a * (b / a) ** (i / m) for i in range(1, m)] + [b]

    def rule(n_g, n_l, n_p):
        p, w = _panels(refined, n_p)
        v, n = inner_pair(p, kf1, kf2, two_eps, power, n_g, n_l)
        return [float(ww @ vv) for ww, vv in
                zip(w.reshape(-1, n_p), weight(p, v).reshape(-1, n_p))], n

    return _ladder(rule, tol, scale, shift, far_err, floor)


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
    y = x ** (1.0 / 3.0)

    def rule(n_g, n_l, n_p):
        v, n = inner_pair(p, 1.0, y, 0.0, 1, n_g, n_l)
        return [v], n

    return _ladder(rule, tol, 9.0 / (8.0 * math.pi ** 2), floor=1.0)


def F_quadrature(x, tol=1e-3):
    """F(x) rebuilt from the p-resolved pair integral, independent of the
    closed form.

    Integrates 4*pi*p^2*(x/p^2 - g(x, p)) over [0, p_far] and adds the far
    field [p_far, inf) term by term, where x/p^2 cancels the series' first
    term. Arguments beyond 1 are reflected through the symmetry law first.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x}")
    _refuse_overflow(x)
    if x > 1.0:
        inner = F_quadrature(1.0 / x, tol)
        scale = x ** (7.0 / 3.0)
        return replace(inner, value=scale * inner.value,
                       error_estimate=scale * inner.error_estimate)
    y = x ** (1.0 / 3.0)
    gpref = 9.0 / (8.0 * math.pi ** 2)
    p_far, far, far_err = _far_field(1.0, y, 1)
    pref = (4.0 / math.pi) * (6.0 * math.pi ** 2) ** (1.0 / 3.0) * 4.0 * math.pi
    return _p_ladder(lambda p, v: x - p * p * gpref * v,
                     sorted({0.0, 2.0 * y, 2.0, p_far}), 1.0, y, 0.0, 1,
                     tol, pref, -pref * gpref * far, pref * gpref * far_err,
                     1.0)


# an extreme rho overflows the pair volume and the limit value: the
# non-finite row still reaches the CLI's guard, and numpy warns nothing
# on the way
@np.errstate(over="ignore", invalid="ignore")
def gap_cutoff_study(params, cutoff, rho_grid, tol=1e-4):
    """Regularized vs limiting second-order integral along a density grid.

    For each rho the spin split keeps the ratio of params; the
    regularized integral carries the gap 2*eps in the denominator and the
    squared low-momentum cutoff, the limit value is the closed form. The
    difference should vanish like rho^(7/3 + min(gamma, delta)).
    """
    if params.rho_up <= 0.0 or params.rho_down <= 0.0:
        raise ValueError(f"both densities must be positive for the study, "
                         f"got {params}")
    x = params.rho_down / params.rho_up
    rows = []
    for rho in rho_grid:
        cc = cutoff.with_rho(rho)
        rho_up = rho / (1.0 + x)
        ku, kd = fermi_momentum(rho_up), fermi_momentum(rho - rho_up)
        vol_pair = (4.0 * math.pi / 3.0) ** 2 * (ku * kd) ** 3
        edges = sorted({0.0, 2.0 * kd, 2.0 * ku, cc.c_lower, cc.c_upper})
        res = asdict(_p_ladder(
            lambda p, v: p * p * cc.chi_less(p) ** 2
            * (v - vol_pair / (2.0 * p * p)),
            [e for e in edges if e <= cc.c_upper], ku, kd, 2.0 * cc.epsilon, 1,
            tol, 4.0 * math.pi))
        i_reg = res.pop("value")
        i_lim = -8.0 * math.pi ** 7 * rho_up ** (7.0 / 3.0) * F_closed(x)
        rows.append({"rho": rho, "i_regularized": i_reg, "i_limit": i_lim,
                     "diff": abs(i_reg - i_lim), **res,
                     "flagged": res["flagged"] or cc.c_lower <= max(ku, kd)})
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
    lattice_nmax before any work."""
    sizes = [lattice_nmax(L, cutoff) for L in L_grid]
    c1, c2 = cutoff.c_lower, cutoff.c_upper
    rr, wr = _panels([c1, c2], 64)
    integral = (c1 + float(np.sum(wr * cutoff.chi_less(rr) ** 2))) \
        / (4.0 * math.pi ** 2)
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

    Numerical over [0, p_far], then the far field term by term; the result
    stays finite down to tiny x and grows with x.
    """
    for x in x_grid:
        if not 0.0 < x <= 1.0:
            raise ValueError(f"x values must lie in (0, 1], got {x}")
    rows = []
    for x in x_grid:
        p_far, far, far_err = _far_field(1.0, x, 2)
        res = _p_ladder(lambda p, v: p * p * v,
                        sorted({0.0, 2.0 * x, 2.0, p_far}), 1.0, x, 0.0, 2,
                        tol, 4.0 * math.pi, 4.0 * math.pi * far,
                        4.0 * math.pi * far_err)
        rows.append({"x": x, **asdict(res)})
    return rows
