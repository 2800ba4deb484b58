"""Quadrature oracles: geometry of the slice measure, the pair integrand,
the independent F route, the principal-value closed forms, and the
scaling studies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hyfermi import quadrature
from hyfermi.cutoffs import CutoffConfig
from hyfermi.hyformula import F_closed, FermiParams
from hyfermi.quadrature import (
    _MAX_LATTICE_NMAX,
    _R_MAX,
    _RUNGS,
    F_quadrature,
    _axis,
    _ball_moments,
    _far_edge,
    _far_field,
    _p_ladder,
    _panels,
    _remainder,
    g_pointwise,
    gap_cutoff_study,
    inner_pair,
    lattice_chi_sum,
    lattice_nmax,
    lattice_sum_convergence,
    singular_integral_bound,
    slice_measure,
    t_integral,
)

from references import (
    ode_check_f,
    p_integral_linear,
    p_integral_quadratic,
    pv_linear_epsilon,
    pv_quadratic_epsilon,
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
    # one p per row of a 2-D beta, on both sides of 2*kf
    p = np.array([0.3, 0.9, 1.2, 1.5, 4.0])
    beta = 1e-3 + np.outer(p, [0.2, 1.0, 3.0])
    got = t_integral(beta, p, 0.6, 2)
    want = [[t_integral(b, pi, 0.6, 2) for b in row] for pi, row in zip(p, beta)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("two_eps", [0.0, 1e-3])
def test_inner_pair_matches_2d_sum(power, two_eps):
    """The exact t-integral against the 2D node-pair sum at high order,
    corner reachable (p <= 2 min(kf)) or not; from p_far on the row is
    the far-field series, one evaluation."""
    for p in (0.3, 1.0, 1.5, 2.5, 7.0):
        for kf2 in (0.3, 0.8, 1.0):
            want = pair_sum_2d(p, 1.0, kf2, two_eps, power, 24, 30)
            got, n = inner_pair(p, 1.0, kf2, two_eps, power)
            assert got == pytest.approx(want, rel=1e-12)
            assert n == (1 if p >= _far_edge(1.0, kf2)
                         else len(_axis(1.0, p, 16, 18)[0]))


# (kf1, kf2): p_far is 2*kf1, (kf1 + kf2)/_R_MAX, or both at once
_FAR_SHELLS = [(1.0, 0.3), (1.0, 0.8), (1.0, 1.0), (0.4, 1.0), (1.0, 0.5)]


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("two_eps", [0.0, 1e-3])
def test_series_rows_match_2d_sum_across_p_far(power, two_eps):
    """Series rows (p >= p_far) and axis rows just below p_far against the
    2D node-pair sum, which is exact to rounding once no corner is
    reachable."""
    for kf1, kf2 in _FAR_SHELLS:
        p_far = _far_edge(kf1, kf2)
        for f in (1.0 - 1e-3, 1.0 - 1e-12, 1.0, 1.0 + 1e-3, 1.5, 40.0):
            p = p_far * f
            want = pair_sum_2d(p, kf1, kf2, two_eps, power, 24, 30)
            got, n = inner_pair(p, kf1, kf2, two_eps, power)
            assert abs(got - want) <= 1e-13 * want, (kf1, kf2, f)
            assert (n == 1) == (f >= 1.0)


def test_series_terms_reach_rounding():
    """_TERMS is the fewest terms whose remainder at r = _R_MAX lies below
    rounding, and the moments it scales stay in [0, 1] with w_0 = 1."""
    q = _R_MAX ** 2
    assert _remainder(q, quadrature._TERMS, 2) < 2.0 ** -53
    assert _remainder(q, quadrature._TERMS - 1, 2) >= 2.0 ** -53
    assert _remainder(q, quadrature._TERMS, 1) < 2.0 ** -53
    for kf1, kf2 in _FAR_SHELLS + [(1.0, 1e-3), (1e-3, 1.0)]:
        w0, w = _ball_moments(kf1, kf2)
        assert w0 == pytest.approx((4.0 * math.pi / 3.0) ** 2
                                   * (kf1 * kf2) ** 3, rel=1e-15)
        assert w[0] == 1.0 and np.all((w >= 0.0) & (w <= 1.0))
        assert np.all(np.diff(w) <= 0.0)


def test_remainder_is_the_closed_tail_sum():
    for q in (0.1, 0.5, _R_MAX ** 2):
        for n in (0, 3, 20):
            m = np.arange(n, 2000)
            assert _remainder(q, n, 1) == pytest.approx(
                float(np.sum(q ** m)), rel=1e-13)
            assert _remainder(q, n, 2) == pytest.approx(
                float(np.sum((2 * m + 1) * q ** m)), rel=1e-13)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("two_eps", [0.0, 1e-3])
@pytest.mark.parametrize("terms", [2, 4, 8, 16])
def test_truncation_bound_covers_the_actual_remainder(power, two_eps, terms,
                                                      monkeypatch):
    """The series cut after a few terms falls short of the 2D node-pair
    sum by at least its first omitted term (every term is positive) and
    by at most the bound W_0 beta^-k _remainder(r^2, terms, k)."""
    for kf1, kf2 in _FAR_SHELLS:
        w0, w = _ball_moments(kf1, kf2)
        for p in (_far_edge(kf1, kf2), 2.0 * _far_edge(kf1, kf2)):
            want = pair_sum_2d(p, kf1, kf2, two_eps, power, 24, 30)
            beta = 2.0 * p * p + two_eps
            q = (2.0 * p * (kf1 + kf2) / beta) ** 2
            scale = w0 * beta ** -power
            first = scale * (1 if power == 1 else 2 * terms + 1) \
                * w[terms] * q ** terms
            bound = scale * _remainder(q, terms, power)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_TERMS", terms)
                got, _ = inner_pair(p, kf1, kf2, two_eps, power)
            rounding = 1e-14 * want
            assert first - rounding <= want - got <= bound + rounding


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("kf1, kf2", _FAR_SHELLS)
def test_far_field_matches_p_quadrature(power, kf1, kf2):
    """_far_field against Gauss panels in u = p_far/p over (0, 1] of the
    2D node-pair sum. For power 1 the m = 0 term W_0/(2p^2) is taken out
    exactly: p^2 (1/den - 1/(2p^2)) = -p (s + t)/den at two_eps = 0."""
    p_far, far, far_err = _far_field(kf1, kf2, power)
    assert p_far == _far_edge(kf1, kf2)
    u, wu = _panels([0.0, 0.25, 0.5, 1.0], 24)
    f = []
    for p in p_far / u:
        s, ws = _axis(kf1, p, 24, 30)
        t, wt = _axis(kf2, p, 24, 30)
        st = s[:, None] + t[None, :]
        den = 2.0 * p * p + 2.0 * p * st
        f.append(-p * float(ws @ (st / den) @ wt) if power == 1
                 else p * p * float(ws @ den ** -2 @ wt))
    want = float(np.sum(wu * p_far / u ** 2 * np.array(f)))
    assert far == pytest.approx(want, rel=1e-14)
    assert 0.0 < far_err < 1e-16 * abs(far)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("two_eps", [0.0, 1e-3])
@pytest.mark.parametrize("kf1, kf2", [(1.0, 0.6), (0.5, 1.0)])
def test_inner_pair_array_matches_scalar_loop(power, two_eps, kf1, kf2):
    """One call on a p-array that straddles 2*kf1 and 2*kf2, long enough
    to be cut into blocks, against one call per p."""
    p = np.concatenate((np.linspace(0.01, 3.0, 101),
                        [2.0 * kf1, 2.0 * kf2, 0.0]))
    got, n = inner_pair(p, kf1, kf2, two_eps, power)
    want = [inner_pair(pi, kf1, kf2, two_eps, power) for pi in p]
    np.testing.assert_allclose(got, [v for v, _ in want], rtol=1e-13, atol=0.0)
    assert n == sum(k for _, k in want)
    assert got[-1] == 0.0


def composite_p_per_panel(fn, edges, n_p):
    """The composite p-rule as a loop: one fn call per p-panel, the panel
    sums added in order."""
    refined = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(2, int(math.ceil(math.log2(b / a)))) \
            if a > 0.0 and b / a > 4.0 else 1
        refined += [a * (b / a) ** (i / m) for i in range(1, m)] + [b]
    nodes, weights = _panels(refined, n_p)
    total = 0.0
    evals = 0
    for xx, ww in zip(nodes.reshape(-1, n_p), weights.reshape(-1, n_p)):
        v, n = fn(xx)
        total += float(ww @ v)
        evals += n
    return total, evals


# (kf1, kf2, two_eps, power, edges): the pair integrands of F_quadrature
# (x = 0.3) and singular_integral_bound (x = 0.05) carried far beyond
# p_far, so that axis and series rows share one call, and a gapped one
# with unequal shells, whose rule has nodes on both sides of each 2kf
_P_RULES = [
    (1.0, 0.3 ** (1.0 / 3.0), 0.0, 1, [0.0, 2.0 * 0.3 ** (1.0 / 3.0), 2.0, 6.0, 50.0]),
    (1.0, 0.05, 0.0, 2, [0.0, 0.1, 2.0, 6.0, 30.0]),
    (0.7, 0.4, 2e-3, 1, [0.0, 0.8, 1.4, 3.0, 9.0]),
]


@pytest.mark.parametrize("kf1, kf2, two_eps, power, edges", _P_RULES)
@pytest.mark.parametrize("rung", range(len(_RUNGS)))
def test_composite_p_one_call_matches_per_panel_loop(kf1, kf2, two_eps,
                                                     power, edges, rung,
                                                     monkeypatch):
    """_p_ladder makes one inner_pair call per rung, with the same total,
    bit for bit, and the same evaluations as a call per p-panel:
    inner_pair's rows do not depend on how the p-nodes are batched. The
    ladder is cut to rung 0 and the rung under test, at scale 1."""
    n_g, n_l, n_p = _RUNGS[rung]
    monkeypatch.setattr(quadrature, "_RUNGS", (_RUNGS[0], _RUNGS[rung]))
    calls = []

    def counted(p, *args):
        out = inner_pair(p, *args)
        calls.append((p.size, out[1]))
        return out

    monkeypatch.setattr(quadrature, "inner_pair", counted)
    got = _p_ladder(lambda p, v: p * p * v, edges, kf1, kf2, two_eps, power,
                    math.nan, 1.0)
    assert len(calls) == 2 and calls[1][0] % n_p == 0 and calls[1][0] > n_p

    def fn(p):
        v, n = inner_pair(p, kf1, kf2, two_eps, power, n_g, n_l)
        return p * p * v, n

    want = composite_p_per_panel(fn, edges, n_p)
    assert (got.value, got.evaluations - calls[0][1]) == want
    assert got.rung == 1 and got.flagged


@pytest.mark.parametrize("call", [
    lambda: F_quadrature(0.4, tol=1e-8),
    lambda: singular_integral_bound([0.2], tol=1e-8),
    lambda: gap_cutoff_study(FermiParams(rho_up=2e-3, rho_down=5e-4),
                             CutoffConfig(rho=1e-3), [1e-3], tol=1e-10),
], ids=["F", "singular", "gap"])
def test_p_integrated_oracles_call_inner_pair_once_per_rung(call,
                                                            monkeypatch):
    """Each tol climbs past rung 1 (to rungs 2, 3 and 3)."""
    calls = []
    real = quadrature.inner_pair

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "inner_pair", counted)
    out = call()
    rung = out.rung if hasattr(out, "rung") else out[0]["rung"]
    assert rung >= 2 and len(calls) == rung + 1


def test_singular_bound_checks_the_grid_before_any_integral(monkeypatch):
    calls = []
    monkeypatch.setattr(quadrature, "inner_pair",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"got 2\.0"):
        singular_integral_bound([0.5, 2.0])
    assert calls == []


def test_axis_refuses_p_on_both_sides_of_2kf():
    with pytest.raises(ValueError):
        _axis(1.0, np.array([1.0, 3.0]), 8, 8)


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


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
def test_f_quadrature_finest_rung_meets_f_closed(x):
    """With the far field summed to rounding, the finest rung lands within
    1e-12 of F_closed; the c8-truncated tail of a cut radius 50 left
    1e-11."""
    res = F_quadrature(x, 1e-13)
    assert abs(res.value - F_closed(x)) <= 1e-12 * F_closed(x)


# 150 log-spaced x across both branches of the reflection, and both sides
# of the near-1 branch
HONESTY_X = [*np.geomspace(1e-3, 8.0, 150), 1.0 - 1e-4, 1.0 + 1e-4]


@pytest.mark.parametrize("tol", [5e-3, 1e-6, 1e-9])
def test_f_quadrature_error_estimate_is_honest(tol):
    """Wherever the ladder stops, F_closed lies within the estimate, and
    the ladder stops before the top."""
    for x in map(float, HONESTY_X):
        res = F_quadrature(x, tol)
        assert abs(res.value - F_closed(x)) <= res.error_estimate, x
        assert not res.flagged, x


def test_f_quadrature_default_tolerance_is_far_inside_it():
    """At the CLI's tol 5e-3 every x stops at rung 1, within 1e-7 of
    F_closed."""
    for x in map(float, HONESTY_X):
        res = F_quadrature(x, 5e-3)
        assert res.rung == 1
        assert abs(res.value - F_closed(x)) <= 1e-7 * F_closed(x), x


def test_f_quadrature_estimate_carries_a_short_far_field(monkeypatch):
    """With the far-field series cut after three terms, its bound joins
    the estimate and still covers the distance to F_closed."""
    monkeypatch.setattr(quadrature, "_TERMS", 3)
    for x in (1e-3, 0.1, 0.5, 1.0):
        res = F_quadrature(x, 1e-9)
        err = abs(res.value - F_closed(x))
        assert 1e-9 * F_closed(x) < err <= res.error_estimate, x


def test_ladder_stops_at_tol():
    coarse, fine = F_quadrature(0.5, 5e-3), F_quadrature(0.5, 1e-8)
    assert coarse.rung == 1 and not coarse.flagged
    assert fine.rung > coarse.rung
    assert fine.evaluations > coarse.evaluations
    assert not fine.flagged and fine.error_estimate <= 1e-8 * fine.value
    top = F_quadrature(0.5, math.nan)
    assert top.rung == len(_RUNGS) - 1 and top.flagged


# a log sweep, and a fine one below x = 1, where the panels [2x, 2] are short
SINGULAR_X = [*np.geomspace(1e-3, 1.0, 12), *np.linspace(0.97, 1.0, 31)]


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_singular_error_estimate_is_honest(tol):
    xs = [float(x) for x in SINGULAR_X]
    ref = singular_integral_bound(xs, tol=1e-12)
    for x, row, want in zip(xs, singular_integral_bound(xs, tol=tol), ref):
        assert abs(row["value"] - want["value"]) <= row["error_estimate"], x
        assert not row["flagged"], x


@pytest.mark.parametrize("tol", [1e-4, 1e-7])
@pytest.mark.parametrize("rho_up, rho_down, rho", [
    (1e-3, 1e-3, 1e-3), (1e-4, 1e-2, 1e-2), (1e-2, 3e-4, 1e-4)])
def test_gap_error_estimate_is_honest(tol, rho_up, rho_down, rho):
    params = FermiParams(rho_up=rho_up, rho_down=rho_down)
    cutoff = CutoffConfig(rho=rho)
    (ref,) = gap_cutoff_study(params, cutoff, [rho], tol=1e-12)
    (row,) = gap_cutoff_study(params, cutoff, [rho], tol=tol)
    assert abs(row["i_regularized"] - ref["i_regularized"]) \
        <= row["error_estimate"]


def test_f_quadrature_monotone():
    vals = [F_quadrature(x).value for x in (0.25, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_f_quadrature_reflects_large_arguments():
    """x = 2 is x = 0.5 reflected: value and estimate scale by 2^(7/3),
    the work counts and the flag are carried over."""
    big = F_quadrature(2.0)
    small = F_quadrature(0.5)
    scale = 2.0 ** (7.0 / 3.0)
    assert big.value == pytest.approx(scale * small.value, rel=1e-12)
    assert big.error_estimate == pytest.approx(scale * small.error_estimate,
                                               rel=1e-12)
    assert (big.evaluations, big.rung, big.flagged) \
        == (small.evaluations, small.rung, small.flagged)


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


def test_lattice_size_is_counted_before_any_work():
    """The cube half-width is ceil(c_upper L / 2 pi); a box one part in a
    thousand beyond the cap, or of nonpositive side, is refused, also
    inside a grid given to lattice_sum_convergence."""
    cutoff = CutoffConfig(rho=2e-3)
    edge = _MAX_LATTICE_NMAX * 2.0 * math.pi / cutoff.c_upper
    assert lattice_nmax(0.999 * edge, cutoff) == _MAX_LATTICE_NMAX
    assert lattice_nmax(16.0, cutoff) == math.ceil(16.0 * cutoff.c_upper / (2.0 * math.pi))
    for L in (1.001 * edge, 1e300, 0.0, -16.0):
        with pytest.raises(ValueError):
            lattice_nmax(L, cutoff)
    with pytest.raises(ValueError, match="the limit is"):
        lattice_sum_convergence([16.0, 1.001 * edge], cutoff)


def test_lattice_sum_approaches_integral():
    cutoff = CutoffConfig(rho=2e-3)
    rows = lattice_sum_convergence([16.0, 32.0, 64.0, 128.0], cutoff)
    diffs = [r["diff"] for r in rows]
    assert diffs == sorted(diffs, reverse=True)
    # Riemann error of a compact C^2 integrand: roughly one power of L
    assert diffs[-1] <= diffs[0] * (16.0 / 128.0) * 4.0


def test_singular_bound_finite_and_ordered():
    rows = singular_integral_bound([1e-3, 0.5, 1.0])
    for r in rows:
        assert math.isfinite(r["value"]) and not r["flagged"]
    assert rows[0]["value"] < rows[-1]["value"]


def test_singular_bound_domain():
    with pytest.raises(ValueError):
        singular_integral_bound([1.5])


# ------------------------------------------------------------ non-finite input


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda bad: F_quadrature(bad),
    lambda bad: g_pointwise(0.5, bad),
    lambda bad: g_pointwise(bad, 1.0),
    lambda bad: ode_check_f(bad),
    lambda bad: singular_integral_bound([bad]),
], ids=["F_quadrature-x", "g_pointwise-p", "g_pointwise-x", "ode_check_f-x",
        "singular_integral_bound-x"])
def test_oracles_refuse_non_finite_arguments(call, bad):
    with pytest.raises(ValueError):
        call(bad)


def test_nan_tolerance_flags_every_oracle():
    nan = math.nan
    assert g_pointwise(0.5, 1.0, tol=nan).flagged is True
    assert F_quadrature(0.5, tol=nan).flagged is True
    assert F_quadrature(2.0, tol=nan).flagged is True
    assert singular_integral_bound([0.5], tol=nan)[0]["flagged"] is True
    params = FermiParams(rho_up=1e-3, rho_down=1e-3)
    rows = gap_cutoff_study(params, CutoffConfig(rho=1e-3), [1e-3], tol=nan)
    assert rows[0]["flagged"] is True


def test_flagged_is_a_python_bool():
    assert F_quadrature(0.5).flagged is False
    assert g_pointwise(0.5, 1.0).flagged is False
    assert singular_integral_bound([0.5])[0]["flagged"] is False
