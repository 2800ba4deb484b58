"""Zero-energy scattering, periodized scattering functions, and the
Bethe-Goldstone equation.

Everything works in units where the one-body kinetic operator is -Delta.
The radial reduction u(r) = r*(1 - phi(r)) turns the zero-energy equation
-2*Delta*phi = V*(1 - phi) into u'' = (V/2)*u with u(0) = 0, which is
integrated with a fixed-step RK4 scheme; outside the support of V the
solution is exactly linear and the scattering length is read off from
a = r - u(r)/u'(r).
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_KINDS = ("square-well", "truncated-gaussian", "tabulated")


@dataclass(frozen=True)
class RadialPotential:
    """Nonnegative radial potential supported in [0, R].

    kind 'square-well' is V0 on [0, R]; 'truncated-gaussian' is
    V0*exp(-(3r/R)^2) cut at R; 'tabulated' interpolates (radius, value)
    samples linearly and vanishes beyond the last sample.
    """

    kind: str
    V0: float = 0.0
    R: float = 1.0
    samples: tuple = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.R <= 0.0:
            raise ValueError("range R must be positive")
        if self.kind == "tabulated":
            if not self.samples:
                raise ValueError("tabulated potential needs samples")
            pts = tuple((float(r), float(v)) for r, v in self.samples)
            radii = np.array([p[0] for p in pts])
            vals = np.array([p[1] for p in pts])
            if np.any(np.diff(radii) <= 0.0):
                raise ValueError("sample radii must be strictly increasing")
            if radii[-1] > self.R:
                raise ValueError("last sample radius exceeds R")
            if np.any(vals < 0.0) or radii[0] < 0.0:
                raise ValueError("samples must have r >= 0 and V >= 0")
            object.__setattr__(self, "samples", pts)
        else:
            if self.V0 < 0.0:
                raise ValueError("V0 must be nonnegative")

    @classmethod
    def from_json(cls, source):
        """Build from a JSON document (dict, JSON text, or path)."""
        if isinstance(source, dict):
            doc = source
        else:
            text = str(source)
            if not text.lstrip().startswith("{"):
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            doc = json.loads(text)
        samples = doc.get("samples")
        return cls(
            kind=doc["kind"],
            V0=float(doc.get("V0", 0.0)),
            R=float(doc.get("R", 1.0)),
            samples=tuple(tuple(s) for s in samples) if samples else None,
        )

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        inside = r <= self.R
        if self.kind == "square-well":
            out = np.where(inside, self.V0, 0.0)
        elif self.kind == "truncated-gaussian":
            out = np.where(inside, self.V0 * np.exp(-((3.0 * r / self.R) ** 2)), 0.0)
        else:
            radii = np.array([p[0] for p in self.samples])
            vals = np.array([p[1] for p in self.samples])
            out = np.interp(r, radii, vals, left=vals[0], right=0.0)
            out = np.where(r > radii[-1], 0.0, out)
        return out if out.ndim else float(out)

    def radial_moment(self, power):
        """integral of V(r) * r^power over [0, R]."""
        if self.kind == "square-well":
            return self.V0 * self.R ** (power + 1) / (power + 1)
        if self.kind == "truncated-gaussian":
            # the integrand is entire: 48 Gauss nodes on [0, R] are exact to
            # rounding for the powers used here
            x48, w48 = np.polynomial.legendre.leggauss(48)
            half = 0.5 * self.R
            rr = half * (1.0 + x48)
            return float(half * np.sum(w48 * self(rr) * rr ** power))
        radii = np.array([p[0] for p in self.samples])
        vals = np.array([p[1] for p in self.samples])
        # 3-point Gauss per linear segment: exact for (linear V) * r^power, power <= 4
        x3, w3 = np.polynomial.legendre.leggauss(3)
        acc = 0.0
        for i in range(len(radii) - 1):
            lo, hi = radii[i], radii[i + 1]
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            rr = mid + half * x3
            vv = vals[i] + (vals[i + 1] - vals[i]) * (rr - lo) / (hi - lo)
            acc += half * np.sum(w3 * vv * rr ** power)
        return acc


def born_length(potential):
    """First-Born approximation (8 pi)^-1 * integral of V over R^3.

    Upper bound for the scattering length of a nonnegative potential.
    """
    return 0.5 * potential.radial_moment(2)


@dataclass(frozen=True)
class ScatteringSolution:
    """Normalized zero-energy radial solution u(r) = r*(1 - phi(r)).

    u_profile is scaled so that u(r) = r - a exactly beyond the support
    of V; slope is the raw u'(matching_radius) before rescaling.
    """

    a: float
    r_grid: np.ndarray
    u_profile: np.ndarray
    matching_radius: float
    slope: float
    residual: float
    potential: RadialPotential = field(repr=False, default=None)

    def phi_profile(self):
        """phi(r) = 1 - u(r)/r on the grid, with the r -> 0 limit filled in."""
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = 1.0 - self.u_profile / self.r_grid
        if self.r_grid[0] == 0.0:
            phi[0] = 1.0 - 1.0 / self.slope
        return phi


def _rk4_linear(q_half, u0, w0, h):
    """March (u, u') through u'' = q(r) u; q_half holds q at step midpoints
    interleaved with nodes: q_half[2i], q_half[2i+1], q_half[2i+2]."""
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


def solve_scattering(potential, n_steps=4000, matching_radius=None):
    """Integrate u'' = (V/2) u, u(0) = 0, u'(0) = 1 and extract a.

    The grid is split at R so the integrator never straddles the edge of
    the support. Raises if the discrete residual of the second-order
    equation is out of line with the step size.
    """
    R = potential.R
    rm = 1.5 * R if matching_radius is None else float(matching_radius)
    if rm < R:
        raise ValueError("matching_radius must not be inside the support")

    h_in = R / n_steps
    r_in = np.linspace(0.0, R, n_steps + 1)
    r_half = np.linspace(0.0, R, 2 * n_steps + 1)
    q_in = 0.5 * potential(r_half)
    # a strong well overflows u to inf; the finiteness check on a below
    # reports that once, so numpy's warnings along the way are muted
    with np.errstate(over="ignore", invalid="ignore"):
        u_in, w_end = _rk4_linear(q_in, 0.0, 1.0, h_in)
        if rm > R:
            # exterior: u'' = 0, the continuation is exactly linear
            n_out = max(16, n_steps // 8)
            r_out = np.linspace(R, rm, n_out + 1)
            u_out = u_in[-1] + w_end * (r_out - R)
            r_grid = np.concatenate([r_in, r_out[1:]])
            u_raw = np.concatenate([u_in, u_out[1:]])
        else:
            r_grid, u_raw = r_in, u_in

        c = w_end
        if not c > 0.0:
            raise RuntimeError("u'(matching_radius) <= 0; potential too "
                               "singular for the zero-energy reduction")
        a = rm - (u_raw[-1]) / c
    if not math.isfinite(a):
        raise RuntimeError(
            f"scattering length {a} is not finite: u overflowed inside the "
            f"support; potential too strong for the zero-energy reduction")

    # centered-difference consistency check on the interior of [0, R]
    if n_steps >= 4:
        lap = (u_in[2:] - 2.0 * u_in[1:-1] + u_in[:-2]) / h_in ** 2
        rhs = q_in[2:-2:2] * u_in[1:-1]
        scale = 1.0 + np.max(np.abs(rhs))
        residual = float(np.max(np.abs(lap - rhs)) / scale)
    else:
        residual = 0.0
    if not residual <= 1e-3:
        raise RuntimeError(
            f"integration residual {residual:.3e} too large; raise n_steps")

    return ScatteringSolution(a=a, r_grid=r_grid, u_profile=u_raw / c,
                              matching_radius=rm, slope=c, residual=residual,
                              potential=potential)


def scattering_length_from_integral(solution):
    """a = (1/2) * integral of V(r) u(r) r dr, a quadrature cross-check."""
    from scipy.integrate import simpson

    pot = solution.potential
    mask = solution.r_grid <= pot.R
    r = solution.r_grid[mask]
    w = pot(r) * solution.u_profile[mask] * r
    return 0.5 * float(simpson(w, x=r))


def _simpson_weights(x):
    """Composite Simpson weights on the nodes x, any spacing: sum(w * y) is
    scipy.integrate.simpson(y, x=x) up to rounding. With an even number of
    nodes the last interval takes the parabola through the last three."""
    h = np.diff(x)
    pairs = (x.size - 1) // 2 * 2
    h0, h1 = h[0:pairs:2], h[1:pairs:2]
    hs = h0 + h1
    w = np.zeros(x.size)
    w[0:pairs - 1:2] += hs / 6.0 * (2.0 - h1 / h0)
    w[1:pairs:2] += hs ** 3 / (6.0 * h0 * h1)
    w[2:pairs + 1:2] += hs / 6.0 * (2.0 - h0 / h1)
    if x.size % 2 == 0:
        h0, h1 = h[-2], h[-1]
        w[-1] += (2.0 * h1 + 3.0 * h0) * h1 / (6.0 * (h0 + h1))
        w[-2] += (h1 + 3.0 * h0) * h1 / (6.0 * h0)
        w[-3] -= h1 ** 3 / (6.0 * h0 * (h0 + h1))
    return w


def fourier_Vf(solution, s):
    """Radial Fourier transform of V * (1 - phi) at |p| = s (vectorized).

    Equals 8*pi*a at s = 0 and decays like 1/s^2; phi-hat(p) is this
    divided by 2|p|^2. Simpson's rule on the solution's grid inside R,
    as one weight vector, so a batch of s is one matrix-vector product.
    """
    pot = solution.potential
    mask = solution.r_grid <= pot.R
    r = solution.r_grid[mask]
    w = 4.0 * np.pi * _simpson_weights(r) * pot(r) * solution.u_profile[mask] * r
    s = np.asarray(s, dtype=np.float64)
    flat = np.atleast_1d(s).ravel()
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, 256):
        out[lo:lo + 256] = np.sinc(flat[lo:lo + 256, None] * r[None, :] / np.pi) @ w
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


# Below this sR the square-well closed form (sin x - x cos x)/x^3 cancels
# (its relative error grows like 1e-16/x^2) and its Taylor series takes over,
# written as 1/3 of sum_j (-1)^j 6(j+1) x^2j / (2j+3)!: seven terms, highest
# first for Horner, exact to rounding for x <= 0.3 (the first omitted term is
# 7e-21 of the sum there), and equal to 1 at x = 0, so the zero mode keeps
# its value bit for bit.
_SW_SERIES_MAX = 0.3
_SW_SERIES = tuple((-1) ** j * 6.0 * (j + 1) / math.factorial(2 * j + 3)
                   for j in reversed(range(7)))


def fourier_V(potential, s):
    """Radial Fourier transform of the bare potential at |p| = s."""
    flat = np.atleast_1d(np.asarray(s, dtype=np.float64)).ravel()
    if potential.kind == "square-well":
        V0, R = potential.V0, potential.R
        small = np.abs(flat * R) <= _SW_SERIES_MAX
        ss = np.where(small, 1.0, flat)
        out = 4.0 * np.pi * V0 * (np.sin(ss * R) - ss * R * np.cos(ss * R)) / ss ** 3
        series = np.polyval(_SW_SERIES, (flat * R) ** 2)
        out = np.where(small, 4.0 * np.pi * V0 * R ** 3 * series / 3.0, out)
    else:
        from scipy.integrate import simpson

        r = np.linspace(0.0, potential.R, 4001)
        w = potential(r) * r * r
        out = np.empty(flat.shape)
        for lo in range(0, flat.size, 256):
            blk = flat[lo:lo + 256, None]
            out[lo:lo + 256] = simpson(
                4.0 * np.pi * w[None, :] * np.sinc(blk * r[None, :] / np.pi),
                x=r, axis=1)
    return float(out[0]) if np.ndim(s) == 0 else out.reshape(np.shape(s))


@dataclass(frozen=True, eq=False)
class PeriodicScatteringFunction:
    """Fourier data of the periodized scattering function on (2pi/L)Z^3.

    coeff(n) is phi-hat at p = (2pi/L)*n for n in the cube |n_i| <= n_max
    and 0 outside it; the zero mode is pinned to 0. phi-hat is radial, so
    values are kept by |n|^2 and computed on first request, one batched
    transform for all new radii of a request. cutoff_applied records
    whether the high-momentum cutoff has been multiplied in.
    """

    L: float
    n_max: int
    a: float
    solution: object = field(repr=False)
    cutoff: object = field(default=None, repr=False)
    _by_n2: dict = field(default_factory=lambda: {0: 0.0}, init=False, repr=False)

    @property
    def cutoff_applied(self) -> bool:
        return self.cutoff is not None

    def _values(self, n2):
        """phi-hat at integer |n|^2 values (any array shape)."""
        uniq, inverse = np.unique(np.asarray(n2, dtype=np.int64), return_inverse=True)
        new = [m for m in uniq.tolist() if m not in self._by_n2]
        if new:
            s = (2.0 * np.pi / self.L) * np.sqrt(np.array(new, dtype=np.float64))
            vals = fourier_Vf(self.solution, s) / (2.0 * s ** 2)
            if self.cutoff is not None:
                vals = vals * self.cutoff.chi_greater(s)
            self._by_n2.update(zip(new, vals.tolist()))
        table = np.array([self._by_n2[m] for m in uniq.tolist()])
        return table[inverse].reshape(np.shape(n2))

    def coeffs(self, ns) -> np.ndarray:
        """coeff(n) for each integer triple of ns, in one batch."""
        n = np.asarray(ns, dtype=np.int64).reshape(-1, 3)
        inside = np.all(np.abs(n) <= self.n_max, axis=1)
        return self._values(np.where(inside, np.sum(n * n, axis=1), 0))

    def coeff(self, n):
        return float(self.coeffs([n])[0])

    def _cube(self) -> np.ndarray:
        """phi-hat on the whole cube, axes n_i = -n_max..n_max in order."""
        n = np.arange(-self.n_max, self.n_max + 1)
        return self._values(n[:, None, None] ** 2 + n[None, :, None] ** 2
                            + n[None, None, :] ** 2)

    @cached_property
    def coefficients(self) -> dict:
        """{n: coeff(n)} over the whole cube, built in one batch on first use."""
        axis = range(-self.n_max, self.n_max + 1)
        return dict(zip(itertools.product(axis, repeat=3),
                        self._cube().ravel().tolist()))

    def real_space(self, N=None):
        """Evaluate on the uniform N^3 spatial grid via an inverse FFT.

        Returns (x, values) with x the 1D coordinate array; values are
        real because the coefficients are real and even.
        """
        if N is None:
            N = 2 * self.n_max + 1
        if N < 2 * self.n_max + 1:
            raise ValueError("N too small to hold the coefficient cube")
        n = np.arange(-self.n_max, self.n_max + 1)
        A = np.zeros((N, N, N), dtype=np.complex128)
        A[np.ix_(n % N, n % N, n % N)] = self._cube()
        vals = np.fft.ifftn(A) * (N ** 3 / self.L ** 3)
        x = np.arange(N) * (self.L / N)
        return x, vals.real


def periodize_phi(solution, L, cutoff=None, n_max=24):
    """Fourier coefficients of the box-periodized scattering function.

    phi-hat(p) = F(V(1-phi))(|p|) / (2|p|^2) on p in (2pi/L)Z^3, zero mode
    dropped; when a cutoff is supplied each coefficient is multiplied by
    chi_greater(|p|). Refuses boxes that cannot contain the support of V.
    Coefficients are transformed only when first asked for.
    """
    R = solution.potential.R
    if L <= 2.0 * R:
        raise ValueError(f"box side L = {L} must exceed twice the range {R}")
    return PeriodicScatteringFunction(L=float(L), n_max=int(n_max), a=solution.a,
                                      solution=solution, cutoff=cutoff)


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
    equation; phi = G over the pair dispersion where that is positive.
    mode is always "radial", the one case bethe_goldstone_solve solves."""

    mode: str
    nodes: np.ndarray
    G: np.ndarray
    phi: np.ndarray
    denominators: np.ndarray
    residual: float
    iterations: int
    used_direct_solve: bool
    condition_estimate: float
    kF_up: float
    kF_down: float


def _panels(edges, n):
    """Nodes and weights of n-point Gauss panels between sorted edges."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    edges = np.asarray(edges, dtype=np.float64)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * xg).ravel(), (half * wg).ravel()


def _radial_rule(potential, q_max):
    """Composite Gauss rule on [0, R] with V folded into the weights.

    Panels of 12 nodes, at least 16 and enough that sin(pr) sin(qr) with
    p, q <= q_max turns by at most 10 radians across one: 12 nodes are
    then exact to rounding. The tabulated sample radii are added as edges,
    so every panel sees a smooth V.
    """
    R = potential.R
    edges = np.linspace(0.0, R, max(16, math.ceil(q_max * R / 5.0)) + 1)
    if potential.kind == "tabulated":
        radii = np.array([p[0] for p in potential.samples])
        edges = np.union1d(edges, radii[(radii > 0.0) & (radii < R)])
    r, w = _panels(edges, 12)
    return r, w * potential(r)


def _bg_radial_matrix(potential, kf_floor, n_radial, q_max):
    """Collocation matrix for the spherically symmetric case r = r' = 0.

    Returns (nodes, M, FV) with the equation reading (I + M) G = FV. The
    angle integral of the kernel is done exactly: with FV the radial
    transform of V,

        int_{-1}^{1} FV(|p - q mu|) dmu = (8 pi / pq) int_0^R V sin(pr) sin(qr) dr,
        FV(q) = (4 pi / q) int_0^R V(r) r sin(qr) dr,

    so one radial rule turns M into S diag(wV) S^T with S = sin(q_i r_k).
    """
    edges = kf_floor + (q_max - kf_floor) * np.array(
        [0.0, 0.03, 0.1, 0.3, 0.6, 1.0])
    q, w = _panels(edges, max(8, n_radial // (len(edges) - 1)))
    r, wv = _radial_rule(potential, q_max)
    S = np.sin(q[:, None] * r[None, :])
    M = ((S * wv) @ S.T) * (w / q) / (np.pi * q[:, None])
    return q, M, (4.0 * np.pi / q) * (S @ (wv * r))


def bethe_goldstone_solve(potential, kF_up, kF_down, n_radial=240,
                          q_max=None, tol=1e-11, max_iter=200):
    """Solve the in-medium pair scattering equation on a momentum grid.

    Only the radial case is solved: both hole momenta at the origin
    (r = r' = 0), where the problem is spherically symmetric and is
    collocated on a radial grid whose Pauli floor is max(kF_up, kF_down).
    Picard iteration runs first; on divergence the dense linear system is
    solved directly and a condition estimate is reported.
    """
    if q_max is None:
        q_max = 80.0 / potential.R
    nodes, M, FV_nodes = _bg_radial_matrix(
        potential, max(kF_up, kF_down), n_radial, q_max)
    lam_p = 2.0 * nodes ** 2

    G = FV_nodes.copy()
    prev = np.inf
    iterations = 0
    diverging = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        G_new = FV_nodes - M @ G
        delta = float(np.max(np.abs(G_new - G)))
        G = G_new
        if delta <= tol * max(1.0, float(np.max(np.abs(G)))):
            converged = True
            break
        diverging = diverging + 1 if delta > prev else 0
        prev = delta
        if diverging >= 3:
            break

    used_direct = False
    cond = None
    if not converged:
        from scipy.linalg import lu_factor, lu_solve
        from scipy.linalg.lapack import dgecon

        A = np.eye(len(FV_nodes)) + M
        lu, piv = lu_factor(A)
        G = lu_solve((lu, piv), FV_nodes)
        rcond, _ = dgecon(lu, np.linalg.norm(A, 1), norm="1")
        cond = float(1.0 / rcond) if rcond > 0 else np.inf
        used_direct = True

    residual = float(np.max(np.abs(G - (FV_nodes - M @ G))))
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(lam_p > 0.0, G / lam_p, np.nan)
    return BGSolution(mode="radial",
                      nodes=nodes, G=G, phi=phi, denominators=lam_p,
                      residual=residual, iterations=iterations,
                      used_direct_solve=used_direct,
                      condition_estimate=cond,
                      kF_up=float(kF_up), kF_down=float(kF_down))
