"""Zero-energy scattering, periodized scattering functions, and the
Bethe-Goldstone equation.

Everything works in units where the one-body kinetic operator is -Delta.
The radial reduction u(r) = r*(1 - phi(r)) turns the zero-energy equation
-2*Delta*phi = V*(1 - phi) into u'' = (V/2)*u with u(0) = 0, which is
integrated with fixed-step RK4. The equation is linear, so every step is
a 2x2 map of (u, u'); the maps are built for all steps at once and
composed by a log-depth scan, with no loop over the steps. Outside the
support of V the solution is exactly linear and the scattering length is
read off from a = r - u(r)/u'(r); the same march with half the steps
gives its step-doubling error estimate. Every integral over r runs on
the Gauss panels of _radial_rule on [0, support], with u between grid
nodes from one RK4 step (_u_at).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _panels

_KINDS = ("square-well", "truncated-gaussian", "tabulated")


@dataclass(frozen=True)
class RadialPotential:
    """Nonnegative radial potential supported in [0, R].

    kind 'square-well' is V0 on [0, R]; 'truncated-gaussian' is
    V0*exp(-(3r/R)^2) cut at R; 'tabulated' interpolates (radius, value)
    samples linearly, holds the first sample value below the first radius
    and vanishes beyond the last sample. Every number must be finite.
    """

    kind: str
    V0: float = 0.0
    R: float = 1.0
    samples: tuple = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind != "tabulated" and not 0.0 <= self.V0 < math.inf:
            raise ValueError(f"V0 must be finite and nonnegative, got {self.V0}")
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"range R must be finite and positive, got {self.R}")
        if self.kind == "tabulated":
            if not self.samples:
                raise ValueError("tabulated potential needs samples")
            pts = tuple((float(r), float(v)) for r, v in self.samples)
            radii, vals = np.array(pts).T
            if not np.all(np.isfinite(pts)):
                raise ValueError("samples must be finite")
            if np.any(np.diff(radii) <= 0.0):
                raise ValueError("sample radii must be strictly increasing")
            if radii[-1] > self.R:
                raise ValueError("last sample radius exceeds R")
            if np.any(vals < 0.0) or radii[0] < 0.0:
                raise ValueError("samples must have r >= 0 and V >= 0")
            object.__setattr__(self, "samples", pts)

    @classmethod
    def from_json(cls, source):
        """Build from a JSON document (dict, JSON text, or path) with the
        keys kind, R and, for a tabulated kind, samples, else V0; an
        unreadable file, a malformed document or any other key raises
        ValueError."""
        if isinstance(source, dict):
            doc = source
        else:
            text = str(source)
            if not text.lstrip().startswith("{"):
                try:
                    with open(text, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except OSError as exc:
                    raise ValueError(f"cannot read potential file: {exc}") \
                        from exc
            doc = json.loads(text)
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError("a potential document is a JSON object with a "
                             "'kind' key")
        # every key is read: a misspelt V0 must not fall back to 0
        keys = ("kind", "R", "samples") if doc["kind"] == "tabulated" \
            else ("kind", "V0", "R")
        for key in doc:
            if key not in keys:
                raise ValueError(f"potential document key {key!r} is not read "
                                 f"for kind {doc['kind']!r}; the keys are "
                                 f"{', '.join(keys)}")
        samples = doc.get("samples")
        try:
            return cls(
                kind=doc["kind"],
                V0=float(doc.get("V0", 0.0)),
                R=float(doc.get("R", 1.0)),
                samples=tuple(tuple(s) for s in samples) if samples else None,
            )
        except TypeError as exc:
            raise ValueError(f"malformed potential document: {exc}") from exc

    @property
    def support(self) -> float:
        """The radius beyond which V vanishes: R, or for a tabulated
        potential its last sample radius, where V may jump to 0."""
        return self.samples[-1][0] if self.kind == "tabulated" else self.R

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.kind == "square-well":
            out = np.where(r <= self.R, self.V0, 0.0)
        elif self.kind == "truncated-gaussian":
            out = np.where(r <= self.R, self.V0 * np.exp(-((3.0 * r / self.R) ** 2)), 0.0)
        else:
            radii = np.array([p[0] for p in self.samples])
            vals = np.array([p[1] for p in self.samples])
            out = np.interp(r, radii, vals, left=vals[0], right=0.0)
        return out if out.ndim else float(out)


def born_length(potential):
    """First-Born approximation (8 pi)^-1 * integral of V over R^3.

    Upper bound for the scattering length of a nonnegative potential.
    """
    r, wv = _radial_rule(potential, 0.0)
    return 0.5 * float(wv @ (r * r))


@dataclass(frozen=True)
class ScatteringSolution:
    """Normalized zero-energy radial solution u(r) = r*(1 - phi(r)).

    u_profile is scaled so that u(r) = r - a exactly beyond the support
    of V, and du_profile is u' on the same grid (exactly 1 there); slope
    is the raw u'(matching_radius) before rescaling; a_error is the
    step-doubling estimate of the integrator's error in a.
    """

    a: float
    r_grid: np.ndarray
    u_profile: np.ndarray
    du_profile: np.ndarray
    matching_radius: float
    slope: float
    residual: float
    a_error: float
    potential: RadialPotential = field(repr=False, default=None)

    def phi_profile(self):
        """phi(r) = 1 - u(r)/r on the grid, with the r -> 0 limit filled in."""
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = 1.0 - self.u_profile / self.r_grid
        if self.r_grid[0] == 0.0:
            phi[0] = 1.0 - 1.0 / self.slope
        return phi


def _rk4_increment(qa, qm, qb, h, u, w):
    """The change of (u, u') over one classical RK4 step of u'' = q(r) u,
    with q equal to qa, qm and qb at the start, middle and end of the step."""
    k1u, k1w = w, qa * u
    k2u, k2w = w + 0.5 * h * k1w, qm * (u + 0.5 * h * k1u)
    k3u, k3w = w + 0.5 * h * k2w, qm * (u + 0.5 * h * k2u)
    k4u, k4w = w + h * k3w, qb * (u + h * k3u)
    return ((h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))


def _rk4_linear(q_half, u0, w0, h):
    """March (u, u') through u'' = q(r) u; q_half holds q at step midpoints
    interleaved with nodes: q_half[2i], q_half[2i+1], q_half[2i+2].

    The equation is linear, so step i is a 2x2 map I + [[a, b], [c, d]] of
    (u, u'), whose columns are the step's increments from (1, 0) and
    (0, 1), for all steps at once. A Hillis-Steele inclusive scan (log2 n
    levels of elementwise products) turns the maps into their running
    products, and after step i u = u0 + a_i u0 + b_i w0 and
    u' = w0 + c_i u0 + d_i w0, returned at every node. The maps are
    kept as their difference from I: a step's a and d are O(h^2 q), and
    rounding 1 + a would repeat one error in every step of a constant q.
    """
    qa, qm, qb = q_half[:-2:2], q_half[1::2], q_half[2::2]
    a, c = _rk4_increment(qa, qm, qb, h, 1.0, 0.0)
    b, d = _rk4_increment(qa, qm, qb, h, 0.0, 1.0)
    k = 1
    while k < a.size:
        # entry i holds the product of the k maps ending at step i and
        # takes in the k before them: (I + E2)(I + E1) = I + E2 + (I + E2) E1
        a1, b1, c1, d1 = a[:-k], b[:-k], c[:-k], d[:-k]
        a2, b2, c2, d2 = a[k:], b[k:], c[k:], d[k:]
        # the diagonal of I + E2; rounding it costs (I + E2) E1 only a
        # relative eps, unlike rounding a step's own 1 + a
        A2, D2 = 1.0 + a2, 1.0 + d2
        da = A2 * a1 + b2 * c1
        db = A2 * b1 + b2 * d1
        dc = c2 * a1 + D2 * c1
        dd = c2 * b1 + D2 * d1
        a2 += da
        b2 += db
        c2 += dc
        d2 += dd
        k *= 2
    return (np.concatenate([[u0], u0 + a * u0 + b * w0]),
            np.concatenate([[w0], w0 + c * u0 + d * w0]))


# RK4 steps across the support of V
_N_STEPS = 4000


def solve_scattering(potential):
    """Integrate u'' = (V/2) u, u(0) = 0, u'(0) = 1 and extract a.

    RK4 on a fixed grid, with the steps composed by the scan of
    _rk4_linear. The grid is split at the edge of the support, so the
    integrator never straddles a jump of V there; beyond it u is continued
    linearly to the matching radius 1.5 R. The same march with half the
    steps gives a_error = |a - a_half| / 15, the step-doubling estimate of
    RK4's error in a. Raises if u overflows, or if the discrete residual
    of the second-order equation is out of line with the step size.
    """
    edge = potential.support
    rm = 1.5 * potential.R

    h_in = edge / _N_STEPS
    r_in = np.linspace(0.0, edge, _N_STEPS + 1)
    r_half = np.linspace(0.0, edge, 2 * _N_STEPS + 1)
    q_in = 0.5 * potential(r_half)
    # a strong well overflows u to inf or nan, and below R ~ 1e-158 the
    # residual's h^2 underflows to 0; the checks below report either once,
    # so numpy's warnings along the way are muted
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u_in, w_in = _rk4_linear(q_in, 0.0, 1.0, h_in)
        c = w_in[-1]
        # twice the step, on every other sample of q
        u_half, w_half = _rk4_linear(q_in[::2], 0.0, 1.0, 2.0 * h_in)
        # exterior: u'' = 0, the continuation is exactly linear
        r_out = np.linspace(edge, rm, _N_STEPS // 8 + 1)
        u_out = u_in[-1] + c * (r_out - edge)
        r_grid = np.concatenate([r_in, r_out[1:]])
        u_raw = np.concatenate([u_in, u_out[1:]])
        a_half = rm - (u_half[-1] + w_half[-1] * (rm - edge)) / w_half[-1]

        # an overflow reaches the edge as inf or, through inf * 0 in the
        # scan, as nan
        if not (math.isfinite(u_in[-1]) and math.isfinite(c)):
            raise RuntimeError(
                f"u = {u_in[-1]}, u' = {c} at the edge of the support are "
                f"not finite: u overflowed; potential too strong for the "
                f"zero-energy reduction")
        if not c > 0.0:
            raise RuntimeError("u'(matching_radius) <= 0; potential too "
                               "singular for the zero-energy reduction")
        a = rm - (u_raw[-1]) / c
        # centered-difference consistency check on the interior of the support
        lap = (u_in[2:] - 2.0 * u_in[1:-1] + u_in[:-2]) / h_in ** 2
        rhs = q_in[2:-2:2] * u_in[1:-1]
        scale = 1.0 + np.max(np.abs(rhs))
        residual = float(np.max(np.abs(lap - rhs)) / scale)
    if not math.isfinite(a):
        raise RuntimeError(
            f"scattering length {a} is not finite: u overflowed inside the "
            f"support; potential too strong for the zero-energy reduction")
    if not residual <= 1e-3:
        raise RuntimeError(f"integration residual {residual:.3e} too large")

    return ScatteringSolution(a=a, r_grid=r_grid, u_profile=u_raw / c,
                              du_profile=np.concatenate([w_in / c, np.ones(r_out.size - 1)]),
                              matching_radius=rm, slope=c, residual=residual,
                              a_error=abs(a - a_half) / 15.0,
                              potential=potential)


def _u_at(solution, r):
    """u at radii r in [0, support]: one step of the solve's RK4 from the
    grid node below each r, with q read at the step's start, its midpoint
    and r; at a grid node the step is 0 and u is u_profile there."""
    grid = solution.r_grid
    i = np.searchsorted(grid, r, side="right") - 1
    h = r - grid[i]
    q = 0.5 * solution.potential(np.stack([grid[i], grid[i] + 0.5 * h, r]))
    du, _ = _rk4_increment(*q, h, solution.u_profile[i], solution.du_profile[i])
    return solution.u_profile[i] + du


def _radial_transform(potential, s, g):
    """4 pi int_0^support V g sin(sr)/(sr) dr at |p| = s (vectorized), on the
    Gauss panels of _radial_rule for the largest |s|, with g read at the
    nodes; each block of 256 values of s is one matrix-vector product."""
    flat = np.atleast_1d(np.asarray(s, dtype=np.float64)).ravel()
    r, wv = _radial_rule(potential, float(np.abs(flat).max(initial=0.0)))
    wf = 4.0 * np.pi * wv * g(r)
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, 256):
        out[lo:lo + 256] = np.sinc(flat[lo:lo + 256, None] * r[None, :] / np.pi) @ wf
    return float(out[0]) if np.ndim(s) == 0 else out.reshape(np.shape(s))


def fourier_Vf(solution, s):
    """Radial Fourier transform of V * (1 - phi) at |p| = s (vectorized).

    Equals 8*pi*a at s = 0 and decays like 1/s^2; phi-hat(p) is this
    divided by 2|p|^2. The weight is r * u, with u at each node from _u_at.
    """
    return _radial_transform(solution.potential, s, lambda r: _u_at(solution, r) * r)


def fourier_V(potential, s):
    """Radial Fourier transform of the bare potential at |p| = s
    (vectorized): weight r^2, for every kind; a square well's 4 pi V0
    (sin sR - sR cos sR) / s^3 comes out within 4e-16 relative of exact."""
    return _radial_transform(potential, s, lambda r: r * r)


@dataclass(frozen=True, eq=False)
class PeriodicScatteringFunction:
    """Fourier data of the periodized scattering function on (2pi/L)Z^3.

    phi-hat is radial, so coeffs reads it as a table by |n|^2: each request
    transforms its distinct nonzero |n|^2 in one batch, at p = (2pi/L)|n|,
    times the high-pass cutoff's chi_greater when one is set. The zero mode
    is pinned to 0.
    """

    L: float
    solution: object = field(repr=False)
    cutoff: object = field(default=None, repr=False)

    def coeffs(self, ns) -> np.ndarray:
        """phi-hat at each integer triple of ns, in one batch."""
        n = np.asarray(ns, dtype=np.int64).reshape(-1, 3)
        n2, inverse = np.unique(np.sum(n * n, axis=1), return_inverse=True)
        live = n2 > 0
        s = (2.0 * np.pi / self.L) * np.sqrt(n2[live])
        vals = fourier_Vf(self.solution, s) / (2.0 * s ** 2)
        if self.cutoff is not None:
            vals = vals * self.cutoff.chi_greater(s)
        table = np.zeros(n2.size)
        table[live] = vals
        return table[inverse]


def check_box(L, potential):
    """Refuse a box side L that does not exceed twice the range R of the
    potential: the box the periodized scattering function needs."""
    if not L > 2.0 * potential.R:
        raise ValueError(f"box side L = {L} must exceed twice the range "
                         f"{potential.R}")


def periodize_phi(solution, L, cutoff=None):
    """Fourier coefficients of the box-periodized scattering function.

    phi-hat(p) = F(V(1-phi))(|p|) / (2|p|^2) on p in (2pi/L)Z^3, zero mode
    dropped; when a cutoff is supplied each coefficient is multiplied by
    chi_greater(|p|). Refuses boxes that check_box refuses. Coefficients
    are transformed when coeffs asks for them.
    """
    check_box(L, solution.potential)
    return PeriodicScatteringFunction(L=float(L), solution=solution, cutoff=cutoff)


def lambda_shift(r, p):
    """Dispersion shift |r+p|^2 - |r|^2; broadcasts over leading axes."""
    r = np.asarray(r, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return np.sum((r + p) ** 2, axis=-1) - np.sum(r * r, axis=-1)


@dataclass(frozen=True)
class EtaFunction:
    """Regularized pair excitation amplitude 8*pi*a over the shifted
    two-particle dispersion."""

    a: float
    epsilon: float
    kF_up: float
    kF_down: float

    def value(self, r, rp, p):
        """8*pi*a / (lambda_{r,p} + lambda_{r',-p} + 2*epsilon).

        With epsilon = 0 the formula is only defined on the Pauli-allowed
        region; a nonpositive denominator raises instead of returning a
        negative amplitude.
        """
        den = lambda_shift(r, p) + lambda_shift(rp, np.negative(p)) \
            + 2.0 * self.epsilon
        if self.epsilon == 0.0 and np.any(den <= 0.0):
            raise ValueError("pair dispersion nonpositive at epsilon = 0; "
                             "arguments leave the Pauli-allowed region")
        if np.any(den == 0.0):
            raise ValueError("pair dispersion vanishes; eta undefined")
        return 8.0 * np.pi * self.a / den


@dataclass(frozen=True)
class BGSolution:
    """Discretized solution of the two-particle in-medium scattering
    equation: G at the radial momentum nodes, which lie strictly above the
    Pauli floor max(kF_up, kF_down) >= 0 and below q_max. The nodes, the
    pair dispersion and phi = G over it are derived on each access, not
    stored. mode is always "radial", the one case bethe_goldstone_solve
    solves."""

    mode: str
    q_max: float
    G: np.ndarray
    residual: float
    kF_up: float
    kF_down: float

    @property
    def nodes(self):
        """The solver's momentum nodes, rebuilt bit for bit."""
        return _bg_grid(max(self.kF_up, self.kF_down), self.q_max)[0]

    @property
    def denominators(self):
        """The pair dispersion 2q^2 at each node."""
        return 2.0 * self.nodes ** 2

    @property
    def phi(self):
        """G over the pair dispersion."""
        return self.G / self.denominators


def _radial_rule(potential, q_max):
    """Composite Gauss rule on [0, support] with V folded into the weights:
    the one rule of every integral over r in this module.

    Panels of 12 nodes, at least 16 and enough that sin(pr) sin(qr) with
    p, q <= q_max turns by at most 10 radians across one: 12 nodes are
    then exact to rounding. The tabulated sample radii are added as edges,
    so every panel sees a smooth V; beyond the support V is 0.
    """
    edge = potential.support
    edges = np.linspace(0.0, edge, max(16, math.ceil(q_max * edge / 5.0)) + 1)
    if potential.kind == "tabulated":
        radii = np.array([p[0] for p in potential.samples])
        edges = np.union1d(edges, radii[(radii > 0.0) & (radii < edge)])
    r, w = _panels(edges, 12)
    return r, w * potential(r)


# momentum nodes of the Bethe-Goldstone grid, which reaches 80 / R
_BG_NODES = 240


def _bg_grid(kf_floor, q_max):
    """_BG_NODES momentum nodes and weights of the Bethe-Goldstone grid:
    Gauss panels between the Pauli floor and q_max, graded toward it."""
    edges = kf_floor + (q_max - kf_floor) * np.array(
        [0.0, 0.03, 0.1, 0.3, 0.6, 1.0])
    return _panels(edges, _BG_NODES // (len(edges) - 1))


def _bg_radial_matrix(potential, kf_floor, q_max):
    """Collocation matrix for the spherically symmetric case r = r' = 0.

    Returns (nodes, M, FV) with the equation reading (I + M) G = FV. The
    angle integral of the kernel is done exactly: with FV the radial
    transform of V,

        int_{-1}^{1} FV(|p - q mu|) dmu = (8 pi / pq) int_0^R V sin(pr) sin(qr) dr,
        FV(q) = (4 pi / q) int_0^R V(r) r sin(qr) dr,

    so one radial rule turns M into A A^T with A = S diag(sqrt(wV)),
    S = sin(q_i r_k): V >= 0 makes wV >= 0, and numpy hands the product
    to BLAS as a symmetric one.
    """
    q, w = _bg_grid(kf_floor, q_max)
    r, wv = _radial_rule(potential, q_max)
    S = np.sin(q[:, None] * r[None, :])
    A = S * np.sqrt(wv)
    M = (A @ A.T) * (w / q) / (np.pi * q[:, None])
    return q, M, (4.0 * np.pi / q) * (S @ (wv * r))


def bethe_goldstone_solve(potential, kF_up, kF_down, tol=1e-11):
    """Solve the in-medium pair scattering equation on a momentum grid.

    Only the radial case is solved: both hole momenta at the origin
    (r = r' = 0), where the problem is spherically symmetric and is
    collocated on a radial grid from the Pauli floor max(kF_up, kF_down)
    to q_max = 80 / R; a floor that is negative or not below a finite
    q_max raises ValueError. The dense system (I + M) G = FV is solved
    directly; a residual above tol * max(1, max|G|), or one that is not a
    number because the system over- or underflowed, raises RuntimeError.
    """
    kf_floor, q_max = max(kF_up, kF_down), 80.0 / potential.R
    if not 0.0 <= kf_floor < q_max < math.inf:
        raise ValueError(f"Pauli floor max(kF_up, kF_down) = {kf_floor} must "
                         f"be nonnegative and below the grid's finite "
                         f"q_max = 80/R = {q_max}")
    # an extreme V0 or R overflows the build; the residual check below
    # reports it once, and numpy warns nothing on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, M, FV_nodes = _bg_radial_matrix(potential, kf_floor, q_max)
        G = np.linalg.solve(np.eye(len(FV_nodes)) + M, FV_nodes)
        residual = float(np.max(np.abs(G - (FV_nodes - M @ G))))
    bound = tol * max(1.0, float(np.max(np.abs(G))))
    if not residual <= bound:
        raise RuntimeError(f"Bethe-Goldstone residual {residual:.3e} above "
                           f"tol * max(1, max|G|) = {bound:.3e}")
    return BGSolution(mode="radial", q_max=q_max, G=G, residual=residual,
                      kF_up=float(kF_up), kF_down=float(kF_down))
